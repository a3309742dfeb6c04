/**
 * @file
 * Tests for the HTTP serving layer (src/server): JSON/HTTP plumbing,
 * endpoint responses, the epoch-keyed sharded LRU response cache,
 * per-endpoint metrics, concurrent request hammering with
 * snapshot-identical responses, catalog hot-swap (generation
 * atomicity, stale-cache regression, /reload), and end-to-end socket
 * round trips against a live HttpServer on an ephemeral loopback
 * port — including swapping generations under concurrent load.
 */

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <mutex>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/batch.h"
#include "core/predictor.h"
#include "db/catalog.h"
#include "obs_util.h"
#include "server/blob_store.h"
#include "server/http_server.h"
#include "server/json.h"
#include "sim/block_predict.h"
#include "sim/pipeline.h"
#include "support/obs/log.h"
#include "support/thread_pool.h"
#include "test_util.h"

namespace uops::test {
namespace {

using server::Endpoint;
using server::HttpRequest;
using server::HttpResponse;

bool
sliceFilter(const isa::InstrVariant &v)
{
    const std::string &m = v.mnemonic();
    return m == "ADD" || m == "XOR" || m == "IMUL" || m == "DIV" ||
           m == "MOVAPS";
}

/** The shared slice as a sharded catalog (the serving input). */
std::shared_ptr<const db::DatabaseCatalog>
sliceCatalog()
{
    static const auto catalog = [] {
        core::BatchOptions options;
        options.num_threads = 2;
        options.characterizer.filter = sliceFilter;
        return db::runCatalogSweep(
            defaultDb(),
            {uarch::UArch::Nehalem, uarch::UArch::Skylake}, options,
            nullptr);
    }();
    return catalog;
}

/** A visibly different generation: ADD/XOR only, Skylake only. */
std::shared_ptr<const db::DatabaseCatalog>
altCatalog()
{
    static const auto catalog = [] {
        core::BatchOptions options;
        options.num_threads = 2;
        options.characterizer.filter =
            [](const isa::InstrVariant &v) {
                return v.mnemonic() == "ADD" || v.mnemonic() == "XOR";
            };
        return db::runCatalogSweep(defaultDb(),
                                   {uarch::UArch::Skylake}, options,
                                   nullptr);
    }();
    return catalog;
}

/** Fresh service over the shared slice catalog. */
std::unique_ptr<server::QueryService>
makeService()
{
    return std::make_unique<server::QueryService>(sliceCatalog(),
                                                  defaultDb());
}

HttpRequest
get(const std::string &target)
{
    return server::parseRequestHead("GET " + target +
                                    " HTTP/1.1\r\nHost: x");
}

// ---------------------------------------------------------------------
// JSON writer.
// ---------------------------------------------------------------------

TEST(Json, WriterProducesStableDocuments)
{
    server::JsonWriter json;
    json.beginObject();
    json.member("name", "A \"quoted\"\nvalue");
    json.member("count", 3);
    json.member("ratio", 0.25);
    json.member("flag", true);
    json.key("list").beginArray();
    json.value(1).value(2);
    json.beginObject().member("x", 1).endObject();
    json.endArray();
    json.endObject();
    EXPECT_EQ(std::move(json).str(),
              "{\"name\":\"A \\\"quoted\\\"\\nvalue\",\"count\":3,"
              "\"ratio\":0.25,\"flag\":true,\"list\":[1,2,{\"x\":1}]}");
}

TEST(Json, EscapesControlCharacters)
{
    EXPECT_EQ(server::jsonEscape(std::string("a\x01"
                                             "b")),
              "a\\u0001b");
    EXPECT_EQ(server::jsonEscape("tab\there"), "tab\\there");
}

// ---------------------------------------------------------------------
// HTTP plumbing.
// ---------------------------------------------------------------------

TEST(Http, ParsesRequestLineQueryAndHeaders)
{
    HttpRequest request = server::parseRequestHead(
        "GET /search?mnemonic=ADD&tp_min=0.5&x=a%20b HTTP/1.1\r\n"
        "Host: localhost\r\nContent-Length: 7");
    EXPECT_EQ(request.method, "GET");
    EXPECT_EQ(request.path, "/search");
    EXPECT_EQ(request.query.at("mnemonic"), "ADD");
    EXPECT_EQ(request.query.at("tp_min"), "0.5");
    EXPECT_EQ(request.query.at("x"), "a b");
    ASSERT_NE(request.header("host"), nullptr);
    EXPECT_EQ(*request.header("HOST"), "localhost");
    EXPECT_EQ(server::contentLength(request), 7u);
}

TEST(Http, RejectsMalformedRequests)
{
    EXPECT_THROW(server::parseRequestHead("GARBAGE"), FatalError);
    EXPECT_THROW(server::parseRequestHead("GET /x SPDY/3"),
                 FatalError);
    EXPECT_THROW(server::percentDecode("%zz"), FatalError);
}

TEST(Http, SerializesResponsesWithLengthAndClose)
{
    HttpResponse response;
    response.body = "{\"a\":1}";
    std::string wire = server::serializeResponse(response);
    EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Content-Length: 7\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
    EXPECT_NE(wire.find("\r\n\r\n{\"a\":1}"), std::string::npos);

    std::string persistent = server::serializeResponse(response, true);
    EXPECT_NE(persistent.find("Connection: keep-alive\r\n"),
              std::string::npos);
    EXPECT_EQ(persistent.find("Connection: close"), std::string::npos);
}

TEST(Http, KeepAliveSemanticsPerVersionAndHeader)
{
    auto head = [](const std::string &text) {
        return server::parseRequestHead(text);
    };
    // HTTP/1.1: persistent by default, opt-out with close.
    EXPECT_TRUE(server::wantsKeepAlive(
        head("GET / HTTP/1.1\r\nHost: x")));
    EXPECT_FALSE(server::wantsKeepAlive(
        head("GET / HTTP/1.1\r\nConnection: close")));
    EXPECT_FALSE(server::wantsKeepAlive(
        head("GET / HTTP/1.1\r\nConnection: CLOSE")));
    // Connection carries a token list; "close" anywhere in it wins.
    EXPECT_FALSE(server::wantsKeepAlive(
        head("GET / HTTP/1.1\r\nConnection: TE, close")));
    EXPECT_FALSE(server::wantsKeepAlive(
        head("GET / HTTP/1.1\r\nConnection: close, TE")));
    // HTTP/1.0: close by default, opt-in with keep-alive.
    EXPECT_FALSE(server::wantsKeepAlive(
        head("GET / HTTP/1.0\r\nHost: x")));
    EXPECT_TRUE(server::wantsKeepAlive(
        head("GET / HTTP/1.0\r\nConnection: Keep-Alive")));
    EXPECT_EQ(head("GET / HTTP/1.0\r\nHost: x").minor_version, 0);
    EXPECT_EQ(head("GET / HTTP/1.1\r\nHost: x").minor_version, 1);
}

// ---------------------------------------------------------------------
// Response cache.
// ---------------------------------------------------------------------

TEST(Cache, LruEvictsLeastRecentlyUsedPerShard)
{
    server::ResponseCache cache(1, 2);
    HttpResponse response;
    response.body = "x";
    cache.put("a", 1, response);
    cache.put("b", 1, response);
    EXPECT_TRUE(cache.get("a", 1).has_value());  // refresh a
    cache.put("c", 1, response);                 // evicts b
    EXPECT_TRUE(cache.get("a", 1).has_value());
    EXPECT_FALSE(cache.get("b", 1).has_value());
    EXPECT_TRUE(cache.get("c", 1).has_value());

    auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(Cache, EntriesAreKeyedByEpoch)
{
    server::ResponseCache cache(4, 8);
    HttpResponse response;
    response.body = "generation one";
    cache.put("/instr/X", 1, response);
    EXPECT_TRUE(cache.get("/instr/X", 1).has_value());
    // The same target under a newer epoch is a miss: a swap can
    // never surface a response rendered from an older generation.
    EXPECT_FALSE(cache.get("/instr/X", 2).has_value());
    // The old entry is not invalidated either — in-flight requests
    // that pinned the old state still hit it.
    EXPECT_EQ(cache.get("/instr/X", 1)->body, "generation one");
}

// ---------------------------------------------------------------------
// Endpoints (router level, no sockets).
// ---------------------------------------------------------------------

TEST(Service, HealthzReportsRecordsAndUArches)
{
    auto service = makeService();
    HttpResponse response = service->handle(get("/healthz"));
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("\"status\":\"ok\""),
              std::string::npos);
    EXPECT_NE(response.body.find("\"uarches\":[\"NHM\",\"SKL\"]"),
              std::string::npos);
}

TEST(Service, InstrEndpointReturnsRecordsAndHonorsUArchParam)
{
    auto service = makeService();
    // /instr is blob-backed: the payload lives in bodyView(), shared
    // with the serving generation's blob store.
    HttpResponse all = service->handle(get("/instr/ADD_R64_R64"));
    EXPECT_EQ(all.status, 200);
    // One record per uarch.
    EXPECT_NE(all.bodyView().find("\"uarch\":\"NHM\""),
              std::string_view::npos);
    EXPECT_NE(all.bodyView().find("\"uarch\":\"SKL\""),
              std::string_view::npos);

    HttpResponse one =
        service->handle(get("/instr/ADD_R64_R64?uarch=SKL"));
    EXPECT_EQ(one.status, 200);
    EXPECT_EQ(one.bodyView().find("\"uarch\":\"NHM\""),
              std::string_view::npos);

    EXPECT_EQ(service->handle(get("/instr/NO_SUCH")).status, 404);
    EXPECT_EQ(service->handle(get("/instr")).status, 400);
}

TEST(Service, SearchEndpointFiltersAndCounts)
{
    auto service = makeService();
    HttpResponse response = service->handle(
        get("/search?uarch=SKL&mnemonic=ADD&limit=100"));
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("\"count\":"), std::string::npos);
    EXPECT_NE(response.body.find("\"mnemonic\":\"ADD\""),
              std::string::npos);
    EXPECT_EQ(response.body.find("\"mnemonic\":\"DIV\""),
              std::string::npos);

    // Port-mask query.
    HttpResponse by_ports =
        service->handle(get("/search?uarch=SKL&uses=p05&limit=3"));
    EXPECT_EQ(by_ports.status, 200);

    // Bad parameters are user errors, not 500s. strtod accepts "nan"
    // and "inf", so they reach the fixed-point bound conversion:
    // NaN must 400, infinities are legal unbounded ranges.
    EXPECT_EQ(service->handle(get("/search?tp_min=abc")).status, 400);
    EXPECT_EQ(service->handle(get("/search?uarch=XYZ")).status, 400);
    EXPECT_EQ(service->handle(get("/search?tp_min=nan")).status, 400);
    EXPECT_EQ(service->handle(get("/search?tp_max=nan")).status, 400);
    EXPECT_EQ(
        service->handle(get("/search?uarch=SKL&tp_max=inf&limit=1"))
            .status,
        200);
}

/** The "count" field of a /search or /analytics JSON body. */
size_t
jsonCount(std::string_view body, std::string_view key)
{
    std::string needle = "\"" + std::string(key) + "\":";
    size_t pos = body.find(needle);
    EXPECT_NE(pos, std::string_view::npos) << key << " in " << body;
    return std::stoul(std::string(body.substr(pos + needle.size())));
}

TEST(Service, SearchResponseIsByteIdenticalToDirectRender)
{
    // The /search hot path splices pre-rendered blob-store fragments
    // instead of re-rendering each record; the splice must be
    // byte-identical to a fresh writeRecordJson render of the same
    // result set.
    auto service = makeService();
    HttpResponse response =
        service->handle(get("/search?uarch=SKL&uses=p0&limit=50"));
    ASSERT_EQ(response.status, 200);

    db::Query query;
    query.arch = uarch::UArch::Skylake;
    query.uses_ports = uarch::portMask({0});
    query.limit = 50;
    std::vector<db::RecordView> records =
        sliceCatalog()->search(query);
    ASSERT_FALSE(records.empty());

    server::JsonWriter json;
    json.beginObject();
    json.member("count", records.size());
    json.key("results").beginArray();
    for (const db::RecordView &view : records)
        server::writeRecordJson(json, view);
    json.endArray();
    json.endObject();
    EXPECT_EQ(response.bodyView(), std::move(json).str());
}

TEST(Service, SearchCompoundPredicatesNarrowAndValidate)
{
    auto service = makeService();
    auto count = [&](const std::string &target) {
        HttpResponse response = service->handle(get(target));
        EXPECT_EQ(response.status, 200) << target;
        return jsonCount(response.bodyView(), "count");
    };

    // Each added conjunct can only narrow the result set.
    size_t base = count("/search?uarch=SKL");
    size_t ports = count("/search?uarch=SKL&uses=p0");
    size_t uops = count("/search?uarch=SKL&uses=p0&uops_max=1");
    size_t lat = count("/search?uarch=SKL&uses=p0&uops_max=1&lat_max=3");
    ASSERT_GT(base, 0u);
    EXPECT_GE(base, ports);
    EXPECT_GE(ports, uops);
    EXPECT_GE(uops, lat);

    // uses_only / uses_exact / has are accepted and consistent:
    // an exact mask is a subset of "only these ports".
    size_t exact = count("/search?uarch=SKL&uses_exact=p0");
    size_t only = count("/search?uarch=SKL&uses_only=p0");
    EXPECT_LE(exact, only);
    count("/search?uarch=SKL&has=breakers,slow");
    count("/search?uarch=SKL&uops_min=2&lat_min=1");

    // Bad operand values are user errors (400), not 500s.
    EXPECT_EQ(service->handle(get("/search?uses_only=zz")).status,
              400);
    EXPECT_EQ(service->handle(get("/search?uses_exact=qq")).status,
              400);
    EXPECT_EQ(service->handle(get("/search?uops_min=abc")).status,
              400);
    EXPECT_EQ(service->handle(get("/search?lat_max=abc")).status,
              400);
    EXPECT_EQ(service->handle(get("/search?has=bogus")).status, 400);
    EXPECT_EQ(service->handle(get("/search?limit=-1")).status, 400);
}

TEST(Service, AnalyticsEndpointValidatesParameters)
{
    auto service = makeService();
    // Missing or unknown uarches: usage error.
    EXPECT_EQ(service->handle(get("/analytics/regressions")).status,
              400);
    EXPECT_EQ(
        service->handle(get("/analytics/regressions?from=NHM"))
            .status,
        400);
    EXPECT_EQ(service
                  ->handle(get(
                      "/analytics/regressions?from=XYZ&to=SKL"))
                  .status,
              400);
    // Unknown metric / direction names.
    EXPECT_EQ(
        service
            ->handle(get("/analytics/regressions?from=NHM&to=SKL"
                         "&metric=bogus"))
            .status,
        400);
    EXPECT_EQ(
        service
            ->handle(get("/analytics/regressions?from=NHM&to=SKL"
                         "&direction=sideways"))
            .status,
        400);
}

TEST(Service, AnalyticsDirectionsPartitionChangesAndEchoParams)
{
    auto service = makeService();
    auto matched = [&](const std::string &direction) {
        HttpResponse response = service->handle(
            get("/analytics/regressions?from=NHM&to=SKL&metric=tp"
                "&direction=" +
                direction));
        EXPECT_EQ(response.status, 200);
        return jsonCount(response.bodyView(), "matched");
    };
    size_t changed = matched("changed");
    size_t regressed = matched("regressed");
    size_t improved = matched("improved");
    ASSERT_GT(changed, 0u)
        << "fixture drift: no NHM->SKL throughput movement";
    EXPECT_EQ(changed, regressed + improved);

    HttpResponse response = service->handle(
        get("/analytics/regressions?from=NHM&to=SKL&metric=latency"
            "&direction=improved&mnemonic=ADD"));
    ASSERT_EQ(response.status, 200);
    std::string_view body = response.bodyView();
    EXPECT_NE(body.find("\"from\":\"NHM\""), std::string_view::npos);
    EXPECT_NE(body.find("\"to\":\"SKL\""), std::string_view::npos);
    EXPECT_NE(body.find("\"metric\":\"latency\""),
              std::string_view::npos);
    EXPECT_NE(body.find("\"direction\":\"improved\""),
              std::string_view::npos);
}

TEST(Service, AnalyticsResponsesAreCached)
{
    auto service = makeService();
    const std::string target =
        "/analytics/regressions?from=NHM&to=SKL&direction=changed";
    HttpResponse first = service->handle(get(target));
    HttpResponse second = service->handle(get(target));
    ASSERT_EQ(first.status, 200);
    EXPECT_FALSE(first.cache_hit);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(first.bodyView(), second.bodyView());
    auto metrics = service->metrics(Endpoint::Analytics);
    EXPECT_EQ(metrics.requests, 2u);
    EXPECT_EQ(metrics.cache_hits, 1u);
}

TEST(Service, DiffEndpointComparesUArches)
{
    auto service = makeService();
    HttpResponse response = service->handle(get("/diff?a=NHM&b=SKL"));
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("\"common\":"), std::string::npos);
    EXPECT_NE(response.body.find("\"changed\":"), std::string::npos);
    EXPECT_EQ(service->handle(get("/diff?a=NHM")).status, 400);
}

TEST(Service, PredictSimulatesAndAnalyzesKernels)
{
    auto service = makeService();
    HttpResponse response = service->handle(
        get("/predict?uarch=SKL&asm=ADD%20RAX,%20RBX;IMUL%20RCX,%20"
            "RAX"));
    ASSERT_EQ(response.status, 200) << response.body;

    // The headline number is the *simulated* throughput — it must
    // equal a direct sim::BlockPredictor run with the engine's
    // default options.
    sim::BlockPredictor direct(defaultDb(), uarch::UArch::Skylake);
    sim::Measurement simulated =
        direct.predict(asm_("ADD RAX, RBX\nIMUL RCX, RAX"));
    EXPECT_NE(response.body.find("\"block_throughput\":" +
                                 xmlFormatDouble(simulated.cycles) +
                                 ",\"simulation\":{"),
              std::string::npos)
        << response.body;

    // The static IACA-style analysis rides along under "analysis",
    // equal to a direct PerformancePredictor run over the same
    // reconstructed characterization set.
    auto set = sliceCatalog()->toCharacterizationSet(
        uarch::UArch::Skylake, defaultDb());
    core::PerformancePredictor predictor(set);
    core::Prediction expected = predictor.analyzeLoop(
        asm_("ADD RAX, RBX\nIMUL RCX, RAX"));
    EXPECT_NE(
        response.body.find(
            "\"analysis\":{\"block_throughput\":" +
            xmlFormatDouble(expected.block_throughput)),
        std::string::npos)
        << response.body;
    EXPECT_NE(response.body.find("\"bottleneck\":\"" +
                                 expected.bottleneck + "\""),
              std::string::npos);

    // Unknown mnemonics and missing parameters are 400s.
    EXPECT_EQ(
        service->handle(get("/predict?uarch=SKL&asm=BOGUS%20RAX"))
            .status,
        400);
    EXPECT_EQ(service->handle(get("/predict?uarch=SKL")).status, 400);
    EXPECT_EQ(service->handle(get("/predict?asm=NOP")).status, 400);
}

TEST(Service, PredictAdmissionRejectsOversizedKernelsWith413)
{
    server::QueryService::Options options;
    options.admission.max_instructions = 2;
    server::QueryService service(sliceCatalog(), defaultDb(),
                                 options);
    HttpResponse response = service.handle(
        get("/predict?uarch=SKL&asm=NOP;NOP;NOP"));
    EXPECT_EQ(response.status, 413) << response.body;
    EXPECT_NE(response.body.find("\"rejected_by\":\"admission\""),
              std::string::npos)
        << response.body;
    EXPECT_NE(response.body.find("\"max_instructions\":2"),
              std::string::npos)
        << response.body;
    // At the limit is fine.
    EXPECT_EQ(
        service.handle(get("/predict?uarch=SKL&asm=NOP;NOP")).status,
        200);
}

TEST(Service, PredictRejectsOverBudgetSimulationsWith429)
{
    server::QueryService::Options options;
    options.engine.predict.cycle_budget = 1;
    server::QueryService service(sliceCatalog(), defaultDb(),
                                 options);
    HttpResponse response = service.handle(
        get("/predict?uarch=SKL&asm=ADD%20RAX,%20RBX"));
    EXPECT_EQ(response.status, 429) << response.body;
    EXPECT_NE(response.body.find("\"rejected_by\":\"admission\""),
              std::string::npos)
        << response.body;
    EXPECT_NE(response.body.find("\"cycle_budget\":1"),
              std::string::npos)
        << response.body;
}

TEST(Service, PredictRejectsWhenEngineIsSaturatedWith429)
{
    server::QueryService::Options options;
    options.engine.max_inflight = 0;
    server::QueryService service(sliceCatalog(), defaultDb(),
                                 options);
    HttpResponse response = service.handle(
        get("/predict?uarch=SKL&asm=ADD%20RAX,%20RBX"));
    EXPECT_EQ(response.status, 429) << response.body;
    EXPECT_NE(response.body.find("\"max_inflight\":0"),
              std::string::npos)
        << response.body;
    auto stats = service.engineStats();
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.simulations, 0u);
}

// ---------------------------------------------------------------------
// Prediction engine, driven directly.
// ---------------------------------------------------------------------

/** Calls @p fn(i) on @p n threads released together by a latch. */
template <typename Fn>
void
runTogether(size_t n, Fn fn)
{
    std::latch start(static_cast<std::ptrdiff_t>(n));
    std::vector<std::thread> threads;
    for (size_t i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            fn(i);
        });
    }
    for (std::thread &t : threads)
        t.join();
}

void
expectSameMeasurement(const sim::Measurement &a,
                      const sim::Measurement &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.port_uops, b.port_uops);
    EXPECT_EQ(a.uops_issued, b.uops_issued);
    EXPECT_EQ(a.uops_eliminated, b.uops_eliminated);
}

TEST(PredictEngine, ConcurrentIdenticalKernelsShareOneSimulation)
{
    server::PredictEngine engine(defaultDb(), {});
    const isa::Kernel body = asm_("IMUL RAX, RBX\nADD RCX, RAX");
    constexpr size_t kThreads = 8;
    std::vector<sim::Measurement> results(kThreads);
    runTogether(kThreads, [&](size_t i) {
        results[i] = engine.simulate(uarch::UArch::Skylake, body);
    });

    server::PredictEngine::Stats stats = engine.stats();
    EXPECT_EQ(stats.sim_cache_misses, 1u);
    EXPECT_EQ(stats.sim_cache_hits, kThreads - 1);
    EXPECT_EQ(stats.simulations, kThreads);
    EXPECT_LE(stats.coalesced, kThreads - 1);
    EXPECT_EQ(stats.inflight, 0u);
    EXPECT_GT(results[0].cycles, 0.0);
    for (const sim::Measurement &m : results)
        expectSameMeasurement(m, results[0]);
}

TEST(PredictEngine, EveryConcurrentOverBudgetCallerThrows)
{
    // Each duplicate of an over-budget kernel takes over the claim
    // the previous caller dropped and runs into the budget itself;
    // nothing is memoized, and two seats serve four callers only if
    // every throw gives its seat back.
    server::PredictEngine::Options options;
    options.predict.cycle_budget = 1;
    server::PredictEngine engine(defaultDb(), options);
    const isa::Kernel body = asm_("ADD RAX, RBX");
    constexpr size_t kThreads = 4;
    std::atomic<size_t> over_budget{0};
    runTogether(kThreads, [&](size_t) {
        try {
            engine.simulate(uarch::UArch::Skylake, body);
        } catch (const sim::CycleBudgetExceeded &) {
            over_budget.fetch_add(1);
        }
    });

    EXPECT_EQ(over_budget.load(), kThreads);
    server::PredictEngine::Stats stats = engine.stats();
    EXPECT_EQ(stats.sim_cache_entries, 0u);
    EXPECT_EQ(stats.simulations, 0u);
    EXPECT_EQ(stats.inflight, 0u);
}

TEST(PredictEngine, OneSeatServesEveryAdmittedCaller)
{
    server::PredictEngine::Options options;
    options.num_threads = 1;
    server::PredictEngine engine(defaultDb(), options);
    const std::vector<isa::Kernel> bodies = {
        asm_("ADD RAX, RBX"), asm_("IMUL RAX, RBX"),
        asm_("DIV EBX"), asm_("MOVAPS XMM0, XMM1\nADDPS XMM0, XMM2")};
    std::vector<sim::Measurement> results(bodies.size());
    runTogether(bodies.size(), [&](size_t i) {
        results[i] = engine.simulate(uarch::UArch::Haswell, bodies[i]);
    });

    for (const sim::Measurement &m : results)
        EXPECT_GT(m.cycles, 0.0);
    server::PredictEngine::Stats stats = engine.stats();
    EXPECT_EQ(stats.workers, 1u);
    EXPECT_EQ(stats.simulations, bodies.size());
    EXPECT_EQ(stats.inflight, 0u);
    EXPECT_EQ(stats.rejected, 0u);
}

TEST(Service, PostPredictUsesBody)
{
    auto service = makeService();
    HttpRequest request;
    request.method = "POST";
    request.target = "/predict?uarch=SKL";
    request.path = "/predict";
    request.query["uarch"] = "SKL";
    request.body = "ADD RAX, RBX";
    HttpResponse response = service->handle(request);
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_NE(response.body.find("\"block_throughput\":"),
              std::string::npos);

    // Non-predict endpoints reject POST.
    HttpRequest bad = request;
    bad.target = "/search";
    bad.path = "/search";
    EXPECT_EQ(service->handle(bad).status, 405);
}

TEST(Service, UnknownEndpointIs404)
{
    auto service = makeService();
    EXPECT_EQ(service->handle(get("/nope")).status, 404);
}

// ---------------------------------------------------------------------
// Cache + metrics behaviour.
// ---------------------------------------------------------------------

TEST(Service, RepeatedGetHitsCacheWithIdenticalBody)
{
    auto service = makeService();
    const std::string target = "/instr/ADD_R64_R64?uarch=SKL";
    HttpResponse first = service->handle(get(target));
    HttpResponse second = service->handle(get(target));
    EXPECT_EQ(first.status, 200);
    EXPECT_FALSE(first.cache_hit);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(first.bodyView(), second.bodyView());
    // Blob-backed entries are shared, not copied: the cached response
    // points at the same bytes, and the cache owns no body of its own.
    EXPECT_EQ(first.blob.get(), second.blob.get());
    EXPECT_NE(first.blob.get(), nullptr);
    EXPECT_EQ(service->cacheStats().owned_bytes, 0u);

    auto metrics = service->metrics(Endpoint::Instr);
    EXPECT_EQ(metrics.requests, 2u);
    EXPECT_EQ(metrics.cache_hits, 1u);
    EXPECT_EQ(metrics.errors, 0u);

    auto cache = service->cacheStats();
    EXPECT_EQ(cache.hits, 1u);
    EXPECT_EQ(cache.insertions, 1u);
}

TEST(Service, ErrorsAreCountedAndNotCached)
{
    auto service = makeService();
    EXPECT_EQ(service->handle(get("/instr/NO_SUCH")).status, 404);
    EXPECT_EQ(service->handle(get("/instr/NO_SUCH")).status, 404);
    auto metrics = service->metrics(Endpoint::Instr);
    EXPECT_EQ(metrics.requests, 2u);
    EXPECT_EQ(metrics.errors, 2u);
    EXPECT_EQ(metrics.cache_hits, 0u);
    EXPECT_EQ(service->cacheStats().insertions, 0u);
}

TEST(Service, StatsEndpointExposesMetricsAndCache)
{
    auto service = makeService();
    service->handle(get("/healthz"));
    HttpResponse response = service->handle(get("/stats"));
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("\"/healthz\":{\"requests\":1"),
              std::string::npos)
        << response.body;
    EXPECT_NE(response.body.find("\"cache\":{"), std::string::npos);

    // Schema pinning for the prediction-service additions: latency
    // percentiles per endpoint, the kernel memo, and the admission +
    // engine counter blocks.
    for (const char *key :
         {"\"p50_us\":", "\"p99_us\":", "\"kernel_memo\":{",
          "\"predict\":{", "\"admission\":{", "\"max_instructions\":",
          "\"max_listing_bytes\":", "\"cycle_budget\":",
          "\"max_inflight\":", "\"rejected_oversize\":",
          "\"rejected_budget\":", "\"rejected_busy\":",
          "\"engine\":{", "\"workers\":", "\"inflight\":",
          "\"simulations\":", "\"coalesced\":",
          "\"sim_cache_hits\":", "\"sim_cache_misses\":",
          "\"sim_cache_entries\":"})
        EXPECT_NE(response.body.find(key), std::string::npos)
            << "missing " << key << " in\n"
            << response.body;
}

TEST(Service, StatsCountsKernelMemoAndAdmissionRejections)
{
    server::QueryService::Options options;
    options.admission.max_instructions = 2;
    server::QueryService service(sliceCatalog(), defaultDb(),
                                 options);
    service.handle(get("/predict?uarch=SKL&asm=ADD%20RAX,%20RBX"));
    // A different spelling of the same kernel: misses the outer
    // response cache (different request text) but hits the memo
    // (same kernel fingerprint).
    HttpRequest respelled;
    respelled.method = "POST";
    respelled.target = "/predict?uarch=SKL";
    respelled.path = "/predict";
    respelled.query["uarch"] = "SKL";
    respelled.body = "ADD RAX,RBX  # same kernel";
    service.handle(respelled);
    service.handle(get("/predict?uarch=SKL&asm=NOP;NOP;NOP"));

    auto memo = service.kernelMemoStats();
    EXPECT_EQ(memo.insertions, 1u);
    EXPECT_EQ(memo.hits, 1u);

    HttpResponse response = service.handle(get("/stats"));
    ASSERT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("\"rejected_oversize\":1"),
              std::string::npos)
        << response.body;
    EXPECT_NE(response.body.find("\"simulations\":1"),
              std::string::npos)
        << response.body;
}

// ---------------------------------------------------------------------
// Hot swap: generations, /reload, and the stale-cache regression.
// ---------------------------------------------------------------------

TEST(ServiceSwap, SwapServesNewGenerationImmediately)
{
    auto service = makeService();
    EXPECT_EQ(service->catalog()->generation(), 1u);
    uint64_t first_epoch = service->epoch();

    HttpResponse before = service->handle(get("/healthz"));
    EXPECT_NE(before.body.find("\"uarches\":[\"NHM\",\"SKL\"]"),
              std::string::npos);

    service->swapCatalog(altCatalog());
    EXPECT_GT(service->epoch(), first_epoch);
    HttpResponse after = service->handle(get("/healthz"));
    EXPECT_NE(after.body.find("\"uarches\":[\"SKL\"]"),
              std::string::npos)
        << after.body;
}

TEST(ServiceSwap, CacheNeverServesAcrossGenerations)
{
    // The stale-cache regression test: a response cached for one
    // generation must be unreachable after a hot swap, in both
    // directions, without any flush.
    auto service = makeService();
    // Any DIV variant: present in the slice, absent from altCatalog.
    db::Query div_query;
    div_query.mnemonic = "DIV";
    div_query.arch = uarch::UArch::Skylake;
    div_query.limit = 1;
    auto div_records = sliceCatalog()->search(div_query);
    ASSERT_EQ(div_records.size(), 1u);
    const std::string target = "/instr/" +
                               std::string(div_records[0].name()) +
                               "?uarch=SKL";
    HttpResponse original = service->handle(get(target));
    ASSERT_EQ(original.status, 200) << original.body;
    EXPECT_TRUE(service->handle(get(target)).cache_hit);

    // The alternate generation has no DIV records at all: a stale
    // cache entry would keep answering 200.
    service->swapCatalog(altCatalog());
    HttpResponse swapped = service->handle(get(target));
    EXPECT_FALSE(swapped.cache_hit);
    EXPECT_EQ(swapped.status, 404) << swapped.body;

    // Swapping back serves the original content again, but through a
    // fresh epoch: the first request must be a miss, not a replay of
    // the epoch-1 entry.
    service->swapCatalog(sliceCatalog());
    HttpResponse back = service->handle(get(target));
    EXPECT_FALSE(back.cache_hit);
    EXPECT_EQ(back.status, 200);
    EXPECT_EQ(back.bodyView(), original.bodyView());
}

TEST(ServiceSwap, PredictContextsAreRebuiltPerGeneration)
{
    auto service = makeService();
    const std::string target =
        "/predict?uarch=SKL&asm=ADD%20RAX,%20RBX";
    HttpResponse before = service->handle(get(target));
    ASSERT_EQ(before.status, 200) << before.body;

    // The alternate catalog lacks IMUL entirely; a predictor context
    // leaked across the swap would still price it.
    service->swapCatalog(altCatalog());
    HttpResponse after = service->handle(get(target));
    EXPECT_EQ(after.status, 200) << after.body;
    HttpResponse imul = service->handle(
        get("/predict?uarch=SKL&asm=IMUL%20RCX,%20RAX"));
    EXPECT_NE(imul.body.find("not present in the characterization"),
              std::string::npos)
        << imul.body;
}

TEST(ServiceSwap, ReloadEndpointSwapsViaReloader)
{
    auto service = makeService();
    // /reload mutates serving state: GET is rejected, and without a
    // configured source POST reports server-side unavailability.
    EXPECT_EQ(service->handle(get("/reload")).status, 405);

    HttpRequest post;
    post.method = "POST";
    post.target = "/reload";
    post.path = "/reload";
    EXPECT_EQ(service->handle(post).status, 503);

    size_t reloads = 0;
    service->setReloader([&reloads] {
        ++reloads;
        return altCatalog();
    });
    HttpResponse response = service->handle(post);
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_NE(response.body.find("\"status\":\"reloaded\""),
              std::string::npos);
    EXPECT_EQ(reloads, 1u);
    EXPECT_EQ(service->catalog().get(), altCatalog().get());
    EXPECT_EQ(service->metrics(Endpoint::Reload).requests, 3u);
}

// ---------------------------------------------------------------------
// Concurrency: N threads hammer the service; every response must be
// identical to the single-threaded answer.
// ---------------------------------------------------------------------

TEST(ServiceConcurrency, HammeredEndpointsStaySnapshotIdentical)
{
    auto service = makeService();
    const std::vector<std::string> targets = {
        "/healthz",
        "/uarchs",
        "/instr/ADD_R64_R64",
        "/instr/ADD_R64_R64?uarch=SKL",
        "/search?uarch=SKL&mnemonic=ADD",
        "/search?uses=p0&limit=5",
        "/diff?a=NHM&b=SKL",
        "/predict?uarch=SKL&asm=ADD%20RAX,%20RBX",
    };
    std::vector<std::string> baseline;
    for (const std::string &target : targets)
        baseline.push_back(
            std::string(service->handle(get(target)).bodyView()));

    std::atomic<size_t> mismatches{0};
    ThreadPool pool(8);
    pool.parallelFor(800, [&](size_t i, size_t) {
        size_t pick = i % targets.size();
        HttpResponse response = service->handle(get(targets[pick]));
        if (response.status != 200 ||
            response.bodyView() != baseline[pick])
            ++mismatches;
    });
    EXPECT_EQ(mismatches.load(), 0u);

    // The hammering must have been served mostly from cache.
    auto cache = service->cacheStats();
    EXPECT_GT(cache.hits, 0u);
    EXPECT_EQ(service->metrics(Endpoint::Search).errors, 0u);
}

// ---------------------------------------------------------------------
// Socket end-to-end.
// ---------------------------------------------------------------------

/** Loopback TCP connect; -1 on failure. */
int
connectTo(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) < 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

void
sendRaw(int fd, const std::string &bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + sent,
                           bytes.size() - sent, 0);
        if (n <= 0)
            break;
        sent += static_cast<size_t>(n);
    }
}

/**
 * Read exactly one Content-Length-framed response off the socket
 * (the keep-alive world's framing; reading to EOF only works on the
 * final response of a connection).
 */
std::string
readOneResponse(int fd, std::string &carry)
{
    std::string response = std::move(carry);
    carry.clear();
    char chunk[4096];
    size_t head_end;
    while (true) {
        size_t pos = response.find("\r\n\r\n");
        if (pos != std::string::npos) {
            head_end = pos + 4;
            break;
        }
        ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            return response;
        response.append(chunk, static_cast<size_t>(n));
    }
    size_t body_bytes = 0;
    size_t cl = response.find("Content-Length: ");
    if (cl != std::string::npos && cl < head_end)
        body_bytes = static_cast<size_t>(
            std::strtoul(response.c_str() + cl + 16, nullptr, 10));
    while (response.size() < head_end + body_bytes) {
        ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            break;
        response.append(chunk, static_cast<size_t>(n));
    }
    carry = response.substr(
        std::min(response.size(), head_end + body_bytes));
    response.resize(std::min(response.size(), head_end + body_bytes));
    return response;
}

/** Blocking loopback HTTP GET on a fresh connection; returns the
 *  full wire response. Sends Connection: close so EOF framing works. */
std::string
httpGet(uint16_t port, const std::string &target)
{
    int fd = connectTo(port);
    if (fd < 0)
        return "";
    sendRaw(fd, "GET " + target +
                    " HTTP/1.1\r\nHost: localhost\r\n"
                    "Connection: close\r\n\r\n");
    std::string response;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
        response.append(chunk, static_cast<size_t>(n));
    ::close(fd);
    return response;
}

TEST(HttpServerSocket, ServesRequestsOnEphemeralPort)
{
    auto service = makeService();
    server::HttpServer http(*service);
    http.start();
    ASSERT_GT(http.port(), 0);

    std::string health = httpGet(http.port(), "/healthz");
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);

    std::string instr =
        httpGet(http.port(), "/instr/ADD_R64_R64?uarch=SKL");
    EXPECT_NE(instr.find("\"uarch\":\"SKL\""), std::string::npos);

    // Second fetch is served from the cache, visibly so.
    std::string cached =
        httpGet(http.port(), "/instr/ADD_R64_R64?uarch=SKL");
    EXPECT_NE(cached.find("X-Cache: hit"), std::string::npos);

    std::string missing = httpGet(http.port(), "/instr/NO_SUCH");
    EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

    http.stop();
    EXPECT_FALSE(http.running());
}

TEST(HttpServerSocket, ConcurrentClientsGetConsistentAnswers)
{
    auto service = makeService();
    server::HttpServer http(*service);
    http.start();

    // Headers carry a per-request X-Request-Id, so identity is a
    // body property: compare everything after the blank line.
    auto body_of = [](const std::string &response) {
        size_t split = response.find("\r\n\r\n");
        return split == std::string::npos ? response
                                          : response.substr(split + 4);
    };
    std::string baseline = httpGet(http.port(), "/healthz");
    ASSERT_NE(baseline.find("200 OK"), std::string::npos);

    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 8; ++t) {
        clients.emplace_back([&] {
            for (int i = 0; i < 10; ++i)
                if (body_of(httpGet(http.port(), "/healthz")) !=
                    body_of(baseline))
                    ++mismatches;
        });
    }
    for (std::thread &client : clients)
        client.join();
    // /healthz is uncached, so every response was freshly rendered;
    // all of them must still be byte-identical.
    EXPECT_EQ(mismatches.load(), 0u);

    http.stop();
}

TEST(HttpServerSocket, KeepAliveServesManyRequestsPerConnection)
{
    auto service = makeService();
    server::HttpServer http(*service);
    http.start();

    int fd = connectTo(http.port());
    ASSERT_GE(fd, 0);
    std::string carry;

    // Several sequential requests over the one connection.
    for (int i = 0; i < 5; ++i) {
        sendRaw(fd, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        std::string response = readOneResponse(fd, carry);
        EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos)
            << "request " << i;
        EXPECT_NE(response.find("Connection: keep-alive"),
                  std::string::npos)
            << "request " << i;
    }

    // Two pipelined requests in a single write: both answered, in
    // order, off the buffered stream.
    sendRaw(fd, "GET /uarchs HTTP/1.1\r\nHost: x\r\n\r\n"
                "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    std::string first = readOneResponse(fd, carry);
    std::string second = readOneResponse(fd, carry);
    EXPECT_NE(first.find("\"uarchs\""), std::string::npos);
    EXPECT_NE(second.find("\"status\":\"ok\""), std::string::npos);

    // Connection: close is honored with a close frame and EOF.
    sendRaw(fd, "GET /healthz HTTP/1.1\r\nHost: x\r\n"
                "Connection: close\r\n\r\n");
    std::string last = readOneResponse(fd, carry);
    EXPECT_NE(last.find("Connection: close"), std::string::npos);
    char byte;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);   // server closed
    ::close(fd);

    http.stop();
}

TEST(HttpServerSocket, KeepAliveConnectionBudgetIsBounded)
{
    auto service = makeService();
    server::HttpServer::Options options;
    options.max_requests_per_connection = 2;
    server::HttpServer http(*service, options);
    http.start();

    int fd = connectTo(http.port());
    ASSERT_GE(fd, 0);
    std::string carry;
    sendRaw(fd, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_NE(readOneResponse(fd, carry).find("Connection: keep-alive"),
              std::string::npos);
    sendRaw(fd, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    // The budget's final response announces the close.
    EXPECT_NE(readOneResponse(fd, carry).find("Connection: close"),
              std::string::npos);
    char byte;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);

    http.stop();
}

TEST(HttpServerSocket, HotSwapUnderConcurrentLoadIsAtomic)
{
    // The acceptance-criterion test: generations are swapped while
    // socket clients hammer the server. Every observed response must
    // be byte-identical to the answer one of the two generations
    // gives in isolation — a mixed or stale body fails — and after
    // the final swap a fresh request must serve the final generation.
    // Targets whose answers differ between the generations (the
    // slice has NHM + SKL and five mnemonics; alt has SKL ADD/XOR).
    const std::vector<std::string> targets = {
        "/instr/ADD_R64_R64",
        "/search?uses=p0&limit=5",
        "/diff?a=NHM&b=SKL",
    };

    // Per-generation baselines from standalone services (no swaps).
    auto baseline_of =
        [&](std::shared_ptr<const db::DatabaseCatalog> catalog) {
            server::QueryService isolated(catalog, defaultDb());
            std::vector<std::string> out;
            for (const std::string &target : targets)
                out.push_back(std::string(
                    isolated.handle(get(target)).bodyView()));
            return out;
        };
    const std::vector<std::string> baseline_a =
        baseline_of(sliceCatalog());
    const std::vector<std::string> baseline_b =
        baseline_of(altCatalog());
    for (size_t i = 0; i < targets.size(); ++i)
        ASSERT_NE(baseline_a[i], baseline_b[i]) << targets[i];

    auto service = makeService();
    server::HttpServer http(*service);
    http.start();

    std::atomic<bool> done{false};
    std::atomic<size_t> served{0};
    std::atomic<size_t> foreign{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            size_t i = static_cast<size_t>(t);
            while (!done.load(std::memory_order_relaxed)) {
                size_t pick = i++ % targets.size();
                std::string wire =
                    httpGet(http.port(), targets[pick]);
                size_t body_at = wire.find("\r\n\r\n");
                if (body_at == std::string::npos)
                    continue;   // connection raced server shutdown
                std::string body = wire.substr(body_at + 4);
                ++served;
                if (body != baseline_a[pick] &&
                    body != baseline_b[pick])
                    ++foreign;
            }
        });
    }

    // Swap back and forth while the clients run.
    for (int swap = 0; swap < 20; ++swap) {
        service->swapCatalog(swap % 2 == 0 ? altCatalog()
                                           : sliceCatalog());
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    service->swapCatalog(altCatalog());
    done.store(true);
    for (std::thread &client : clients)
        client.join();

    EXPECT_GT(served.load(), 0u);
    EXPECT_EQ(foreign.load(), 0u);

    // Post-swap requests serve the final generation, not a stale one.
    for (size_t i = 0; i < targets.size(); ++i) {
        std::string wire = httpGet(http.port(), targets[i]);
        EXPECT_EQ(wire.substr(wire.find("\r\n\r\n") + 4),
                  baseline_b[i])
            << targets[i];
    }

    http.stop();
}

TEST(HttpServerSocket, MalformedRequestGets400)
{
    auto service = makeService();
    server::HttpServer http(*service);
    http.start();

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(http.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    const char *garbage = "NOT-HTTP\r\n\r\n";
    ASSERT_GT(::send(fd, garbage, std::strlen(garbage), 0), 0);
    std::string response;
    char chunk[1024];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
        response.append(chunk, static_cast<size_t>(n));
    ::close(fd);
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);

    http.stop();
}

// ---------------------------------------------------------------------
// Fail-operational reload: a corrupt on-disk catalog rejects the
// reload with a structured 503 while the pinned generation keeps
// serving byte-identical answers.
// ---------------------------------------------------------------------

/** Fresh, empty temp directory for one test. */
std::string
freshDir(const std::string &name)
{
    auto path = std::filesystem::temp_directory_path() /
                ("uops_server_test_" + name);
    std::filesystem::remove_all(path);
    return path.string();
}

void
overwriteFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(static_cast<bool>(os)) << path;
}

HttpRequest
postReload()
{
    HttpRequest post;
    post.method = "POST";
    post.target = "/reload";
    post.path = "/reload";
    return post;
}

TEST(ServiceReload, CorruptCatalogKeepsOldGenerationWith503)
{
    const std::string dir = freshDir("corrupt_reload");
    db::saveCatalogDir(*sliceCatalog(), dir);

    auto service = makeService();
    service->setReloader([dir](db::RecoveryReport &report) {
        return db::openCatalog(dir, db::LoadMode::Mmap, &report);
    });

    // Capture answers from the pinned generation, then break every
    // on-disk generation (a single manifest with a bad magic).
    const std::string instr_before = std::string(
        service->handle(get("/instr/ADD_R64_R64")).bodyView());
    uint64_t epoch_before = service->epoch();
    overwriteFile(dir + "/" + db::manifestFileName(1),
                  "not a manifest");

    HttpResponse response = service->handle(postReload());
    EXPECT_EQ(response.status, 503) << response.body;
    EXPECT_NE(response.body.find("\"reason\":\"reload_rejected\""),
              std::string::npos)
        << response.body;
    EXPECT_NE(response.body.find("\"serving_generation\":1"),
              std::string::npos)
        << response.body;

    // Fail-operational: nothing swapped, answers byte-identical.
    EXPECT_EQ(service->epoch(), epoch_before);
    EXPECT_EQ(service->handle(get("/instr/ADD_R64_R64")).bodyView(),
              instr_before);

    // The rejection is visible in /stats.
    std::string stats = service->handle(get("/stats")).body;
    EXPECT_NE(stats.find("\"reload\":{"), std::string::npos);
    EXPECT_NE(stats.find("\"rejections\":1"), std::string::npos)
        << stats;

    // Repairing the store makes the next reload succeed.
    db::saveCatalogDir(*sliceCatalog(), dir);
    EXPECT_EQ(service->handle(postReload()).status, 200);
    EXPECT_EQ(service->epoch(), epoch_before + 1);
}

TEST(ServiceReload, RecoveredReloadReportsTheFallback)
{
    const std::string dir = freshDir("recovered_reload");
    db::saveCatalogDir(*sliceCatalog(), dir);
    // Publish generation 2 (same shards), then corrupt its
    // manifest's stored shard hash so verification rejects it.
    auto gen2 = db::DatabaseCatalog::splice(*sliceCatalog(), {});
    db::saveCatalogDir(*gen2, dir);
    const std::string newest = dir + "/" + db::manifestFileName(2);
    std::string bytes;
    {
        std::ifstream is(newest, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        bytes = std::move(os).str();
    }
    ASSERT_GT(bytes.size(), 48u);
    bytes[40] = static_cast<char>(bytes[40] ^ 0xff);
    overwriteFile(newest, bytes);

    auto service = makeService();
    service->setReloader([dir](db::RecoveryReport &report) {
        return db::openCatalog(dir, db::LoadMode::Mmap, &report);
    });

    HttpResponse response = service->handle(postReload());
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_NE(response.body.find("\"recovery\":{"),
              std::string::npos)
        << response.body;
    EXPECT_NE(response.body.find("\"recovered\":true"),
              std::string::npos)
        << response.body;
    EXPECT_EQ(service->catalog()->generation(), 1u);

    std::string stats = service->handle(get("/stats")).body;
    EXPECT_NE(stats.find("\"recoveries\":1"), std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"verification_failures\":1"),
              std::string::npos)
        << stats;
}

// ---------------------------------------------------------------------
// Graceful drain and slow clients.
// ---------------------------------------------------------------------

/** True when @p wire holds a complete Content-Length-framed
 *  response (header terminator present, full body received). */
bool
completeResponse(const std::string &wire)
{
    size_t head_end = wire.find("\r\n\r\n");
    if (head_end == std::string::npos)
        return false;
    size_t cl = wire.find("Content-Length: ");
    if (cl == std::string::npos || cl > head_end)
        return false;
    size_t body_bytes = static_cast<size_t>(
        std::strtoul(wire.c_str() + cl + 16, nullptr, 10));
    return wire.size() == head_end + 4 + body_bytes;
}

TEST(HttpServerDrain, DrainUnderLoadSendsEveryResponseWhole)
{
    auto service = makeService();
    server::HttpServer::Options options;
    options.num_threads = 4;
    server::HttpServer http(*service, options);
    http.start();

    // Clients hammer until the listener goes away. Every response
    // that starts must arrive whole — a refused or never-accepted
    // connection (empty wire) is fine, a truncated body is not.
    std::atomic<size_t> complete{0};
    std::atomic<size_t> truncated{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            const std::string target =
                t % 2 == 0 ? "/search?uses=p0&limit=5" : "/healthz";
            while (true) {
                int fd = connectTo(http.port());
                if (fd < 0)
                    return;   // drain closed the listener
                sendRaw(fd, "GET " + target +
                                " HTTP/1.1\r\nHost: x\r\n"
                                "Connection: close\r\n\r\n");
                std::string wire;
                char chunk[4096];
                ssize_t n;
                while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
                    wire.append(chunk, static_cast<size_t>(n));
                ::close(fd);
                if (wire.empty())
                    continue;   // refused mid-drain: acceptable
                if (completeResponse(wire))
                    ++complete;
                else
                    ++truncated;
            }
        });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    bool clean = http.drain(std::chrono::seconds(10));
    for (std::thread &client : clients)
        client.join();

    EXPECT_TRUE(clean);
    EXPECT_GT(complete.load(), 0u);
    EXPECT_EQ(truncated.load(), 0u);
    EXPECT_EQ(http.activeConnections(), 0u);
    EXPECT_FALSE(http.running());
    EXPECT_TRUE(http.draining());
}

TEST(HttpServerDrain, StalledClientIsForcedAtTheDeadline)
{
    auto service = makeService();
    server::HttpServer::Options options;
    options.num_threads = 2;
    options.recv_timeout_seconds = 30;   // not the mechanism here
    server::HttpServer http(*service, options);
    http.start();

    // A client that sends half a request head and stalls would pin
    // its worker past any deadline; drain must force it instead of
    // waiting for it.
    int fd = connectTo(http.port());
    ASSERT_GE(fd, 0);
    sendRaw(fd, "GET /healthz HT");
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ASSERT_EQ(http.activeConnections(), 1u);

    auto t0 = std::chrono::steady_clock::now();
    bool clean = http.drain(std::chrono::milliseconds(300));
    auto elapsed = std::chrono::steady_clock::now() - t0;

    EXPECT_FALSE(clean);   // the deadline had to fire
    EXPECT_LT(elapsed, std::chrono::seconds(5));
    EXPECT_EQ(http.activeConnections(), 0u);

    // The forced socket is dead: the client sees EOF or a reset.
    char chunk[64];
    EXPECT_LE(::recv(fd, chunk, sizeof chunk, 0), 0);
    ::close(fd);
}

TEST(HttpServerDrain, SlowClientRecvTimeoutFreesTheWorker)
{
    auto service = makeService();
    server::HttpServer::Options options;
    options.num_threads = 2;
    options.recv_timeout_seconds = 1;
    server::HttpServer http(*service, options);
    http.start();

    // Stall mid-request-head: the per-connection receive timeout
    // must cut the connection loose, not leak the worker.
    int fd = connectTo(http.port());
    ASSERT_GE(fd, 0);
    sendRaw(fd, "GET /healthz HT");

    // The other worker keeps serving fresh connections meanwhile.
    std::string health = httpGet(http.port(), "/healthz");
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);

    auto t0 = std::chrono::steady_clock::now();
    char chunk[64];
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LE(n, 0);   // server closed on us
    EXPECT_LT(elapsed, std::chrono::seconds(5));
    ::close(fd);

    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(http.activeConnections(), 0u);
    EXPECT_TRUE(http.drain(std::chrono::seconds(1)));
}

// ---------------------------------------------------------------------
// Observability: /metrics exposition, request IDs, debug timings,
// and the structured access log.
// ---------------------------------------------------------------------

TEST(Observability, MetricsExpositionMatchesRegistry)
{
    auto service = makeService();
    service->handle(get("/healthz"));
    service->handle(get("/healthz"));
    service->handle(get("/instr/ADD_R64_R64?uarch=SKL"));
    service->handle(get("/instr/ADD_R64_R64?uarch=SKL"));   // hit
    service->handle(get("/nope"));                          // 404
    service->handle(get("/predict?uarch=SKL&asm=ADD%20RAX,%20RBX"));

    HttpResponse response = service->handle(get("/metrics"));
    ASSERT_EQ(response.status, 200);
    EXPECT_NE(response.content_type.find("text/plain"),
              std::string::npos);
    EXPECT_NE(response.content_type.find("version=0.0.4"),
              std::string::npos);
    Exposition parsed = parseExposition(response.body);

    // Every per-endpoint series must agree with the /stats-backing
    // accessor — one registry, two renderings. The /metrics request
    // itself is mid-flight when the body renders: its own request
    // counter is already incremented, its latency not yet observed.
    for (size_t i = 0; i < server::kNumEndpoints; ++i) {
        auto endpoint = static_cast<Endpoint>(i);
        auto metrics = service->metrics(endpoint);
        std::string labels = std::string("{endpoint=\"") +
                             server::endpointName(endpoint) + "\"}";
        EXPECT_EQ(parsed.series["uops_http_requests_total" + labels],
                  static_cast<double>(metrics.requests))
            << server::endpointName(endpoint);
        EXPECT_EQ(parsed.series["uops_http_errors_total" + labels],
                  static_cast<double>(metrics.errors));
        EXPECT_EQ(
            parsed.series["uops_http_cache_hits_total" + labels],
            static_cast<double>(metrics.cache_hits));
        if (endpoint != Endpoint::Metrics)
            EXPECT_EQ(
                parsed.series["uops_http_request_duration_us_count" +
                              labels],
                static_cast<double>(metrics.samples));
    }

    // Spot-check the derived expectations the scrape is for.
    EXPECT_EQ(
        parsed.series["uops_http_requests_total{endpoint=\"/healthz\"}"],
        2.0);
    EXPECT_EQ(
        parsed.series["uops_http_errors_total{endpoint=\"other\"}"],
        1.0);
    EXPECT_EQ(parsed.series["uops_http_cache_hits_total"
                            "{endpoint=\"/instr\"}"],
              1.0);

    // Cache, engine, and serving-state series mirror their stats
    // structs through render-time callbacks.
    auto cache = service->cacheStats();
    EXPECT_EQ(parsed.series["uops_response_cache_hits_total"
                            "{cache=\"response\"}"],
              static_cast<double>(cache.hits));
    EXPECT_EQ(parsed.series["uops_response_cache_insertions_total"
                            "{cache=\"response\"}"],
              static_cast<double>(cache.insertions));
    EXPECT_EQ(parsed.series["uops_engine_simulations_total"], 1.0);
    EXPECT_EQ(parsed.series["uops_serving_generation"],
              static_cast<double>(service->catalog()->generation()));
    EXPECT_EQ(parsed.series.count("uops_reloads_total"), 1u);
    EXPECT_EQ(
        parsed.series.count("uops_catalog_recoveries_total"), 1u);

    // Families carry HELP and TYPE exactly once each.
    EXPECT_EQ(parsed.type["uops_http_requests_total"], "counter");
    EXPECT_EQ(parsed.type["uops_http_request_duration_us"],
              "histogram");
    EXPECT_FALSE(parsed.help["uops_http_requests_total"].empty());
}

TEST(Observability, SweepMemoCountersAreUniqueAcrossRegistries)
{
    // A sweep registers the process-wide memo counters in the global
    // registry; /metrics renders the service's registry followed by
    // the global one, so no family may appear in both.
    core::BatchOptions options;
    options.num_threads = 2;
    options.characterizer.filter = [](const isa::InstrVariant &v) {
        return v.mnemonic() == "IMUL";
    };
    core::runBatchSweep(defaultDb(), {uarch::UArch::Skylake}, options);
    core::SweepMemoTotals totals = core::sweepMemoTotals();
    EXPECT_GT(totals.misses, 0u);
    EXPECT_GT(totals.hits, 0u);
    sim::CopyTotals copies = sim::copyTotals();
    EXPECT_GE(copies.run, 120 * totals.misses);

    auto service = makeService();
    HttpResponse response = service->handle(get("/metrics"));
    ASSERT_EQ(response.status, 200);
    std::map<std::string, int> type_lines;
    size_t pos = 0;
    while ((pos = response.body.find("# TYPE ", pos)) !=
           std::string::npos) {
        pos += 7;
        ++type_lines[response.body.substr(
            pos, response.body.find(' ', pos) - pos)];
    }
    for (const auto &[family, count] : type_lines)
        EXPECT_EQ(count, 1) << family << " rendered by both registries";

    Exposition parsed = parseExposition(response.body);
    EXPECT_EQ(parsed.type["uops_sweep_memo_hits_total"], "counter");
    EXPECT_EQ(parsed.series["uops_sweep_memo_hits_total"],
              static_cast<double>(totals.hits));
    EXPECT_EQ(parsed.series["uops_sweep_memo_misses_total"],
              static_cast<double>(totals.misses));
    EXPECT_EQ(parsed.type["uops_sweep_memo_waits_total"], "counter");
    EXPECT_EQ(parsed.series["uops_sweep_memo_waits_total"],
              static_cast<double>(totals.waits));
    EXPECT_EQ(parsed.type["uops_sim_copies_total"], "counter");
    EXPECT_EQ(parsed.series["uops_sim_copies_total"],
              static_cast<double>(copies.run));
    EXPECT_EQ(parsed.type["uops_sim_copies_skipped_total"], "counter");
    EXPECT_EQ(parsed.series["uops_sim_copies_skipped_total"],
              static_cast<double>(copies.skipped));
}

TEST(Observability, StatsReportsSamplesAndNullPercentiles)
{
    auto service = makeService();
    service->handle(get("/healthz"));
    HttpResponse response = service->handle(get("/stats"));
    ASSERT_EQ(response.status, 200);
    // /diff was never hit: explicit zero samples, null percentiles —
    // distinguishable from "fast" (which /healthz's numbers are not).
    EXPECT_NE(response.body.find(
                  "\"/diff\":{\"requests\":0,\"errors\":0,"
                  "\"cache_hits\":0,\"total_us\":0,\"samples\":0,"
                  "\"p50_us\":null,\"p99_us\":null"),
              std::string::npos)
        << response.body;
    size_t healthz = response.body.find("\"/healthz\":{");
    ASSERT_NE(healthz, std::string::npos);
    size_t healthz_end = response.body.find('}', healthz);
    ASSERT_NE(healthz_end, std::string::npos);
    std::string block =
        response.body.substr(healthz, healthz_end - healthz + 1);
    EXPECT_NE(block.find("\"samples\":1"), std::string::npos)
        << block;
    EXPECT_EQ(block.find("\"p50_us\":null"), std::string::npos)
        << block;
}

TEST(Observability, RequestIdsAreEchoedOrMinted)
{
    auto service = makeService();

    // No client ID: minted, 16 lowercase hex.
    HttpResponse minted = service->handle(get("/healthz"));
    ASSERT_EQ(minted.request_id.size(), 16u);
    for (char c : minted.request_id)
        EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)));

    // Sane client ID: echoed verbatim, on errors too.
    HttpRequest tagged = get("/nope");
    tagged.headers.emplace_back("X-Request-Id", "client-id-42");
    HttpResponse echoed = service->handle(tagged);
    EXPECT_EQ(echoed.status, 404);
    EXPECT_EQ(echoed.request_id, "client-id-42");

    // Garbage client ID (embedded control char): replaced, not
    // reflected back into the header section.
    HttpRequest hostile = get("/healthz");
    hostile.headers.emplace_back("X-Request-Id", "bad\rid");
    HttpResponse replaced = service->handle(hostile);
    EXPECT_EQ(replaced.request_id.size(), 16u);
    EXPECT_EQ(replaced.request_id.find('\r'), std::string::npos);

    // The serialized response carries the header.
    std::string wire = server::serializeResponse(echoed);
    EXPECT_NE(wire.find("X-Request-Id: client-id-42\r\n"),
              std::string::npos);
}

TEST(Observability, CachedResponsesGetFreshRequestIds)
{
    auto service = makeService();
    const std::string target = "/instr/ADD_R64_R64?uarch=SKL";
    HttpResponse first = service->handle(get(target));
    HttpResponse second = service->handle(get(target));
    ASSERT_TRUE(second.cache_hit);
    EXPECT_EQ(first.bodyView(), second.bodyView());
    // Correlation must stay per-request even when the body is shared.
    EXPECT_NE(first.request_id, second.request_id);
}

TEST(Observability, DebugTimingsExposesSpansAndBypassesCaches)
{
    auto service = makeService();
    const std::string target =
        "/predict?uarch=SKL&asm=ADD%20RAX,%20RBX&debug=timings";
    HttpResponse first = service->handle(get(target));
    ASSERT_EQ(first.status, 200) << first.body;
    size_t timings_at = first.body.find("\"timings\":[");
    ASSERT_NE(timings_at, std::string::npos) << first.body;
    // Search within the timings array only: "analysis" also names the
    // static-analysis block earlier in the response body.
    std::string timings = first.body.substr(timings_at);

    // The span tree: one root covering the phase children.
    EXPECT_NE(timings.find("\"name\":\"predict\",\"depth\":0"),
              std::string::npos)
        << timings;
    for (const char *phase :
         {"\"parse\"", "\"assemble\"", "\"simulate\"",
          "\"analysis\"", "\"render\""}) {
        size_t at = timings.find(std::string("\"name\":") + phase);
        ASSERT_NE(at, std::string::npos) << phase << timings;
        EXPECT_NE(timings.find("\"depth\":1", at),
                  std::string::npos);
    }
    // Phases appear in pipeline order.
    EXPECT_LT(timings.find("\"parse\""),
              timings.find("\"assemble\""));
    EXPECT_LT(timings.find("\"assemble\""),
              timings.find("\"simulate\""));
    EXPECT_LT(timings.find("\"simulate\""),
              timings.find("\"analysis\""));
    EXPECT_LT(timings.find("\"analysis\""),
              timings.find("\"render\""));

    // Debug responses are never cached (response cache or kernel
    // memo), so timings stay per-request...
    HttpResponse second = service->handle(get(target));
    EXPECT_FALSE(second.cache_hit);
    EXPECT_EQ(service->cacheStats().insertions, 0u);
    EXPECT_EQ(service->kernelMemoStats().insertions, 0u);

    // ...and the memoized fast path stays byte-identical to a cold
    // render: the plain spelling of the same request has no timings.
    HttpResponse plain = service->handle(
        get("/predict?uarch=SKL&asm=ADD%20RAX,%20RBX"));
    ASSERT_EQ(plain.status, 200);
    EXPECT_EQ(plain.body.find("\"timings\""), std::string::npos);
}

TEST(Observability, AccessLogLinesAreValidJson)
{
    server::QueryService::Options options;
    options.log_level = obs::LogLevel::Info;
    options.slow_request_us = 1;   // everything interesting is slow
    server::QueryService service(sliceCatalog(), defaultDb(),
                                 options);
    std::mutex sink_mutex;
    std::vector<std::string> lines;
    service.logger().setSink([&](std::string_view line) {
        std::lock_guard<std::mutex> lock(sink_mutex);
        lines.emplace_back(line);
    });

    service.handle(get("/healthz"));
    service.handle(get("/nope"));
    HttpRequest tagged =
        get("/predict?uarch=SKL&asm=ADD%20RAX,%20RBX");
    tagged.headers.emplace_back("X-Request-Id", "trace-me");
    service.handle(tagged);

    ASSERT_GE(lines.size(), 3u);
    bool saw_404 = false, saw_slow = false, saw_tagged = false;
    for (const std::string &line : lines) {
        EXPECT_TRUE(isValidJsonObject(line)) << line;
        if (line.find("\"event\":\"access\"") != std::string::npos &&
            line.find("\"status\":404") != std::string::npos)
            saw_404 = true;
        if (line.find("\"event\":\"slow_request\"") !=
            std::string::npos)
            saw_slow = true;
        if (line.find("\"id\":\"trace-me\"") != std::string::npos)
            saw_tagged = true;
    }
    EXPECT_TRUE(saw_404);
    EXPECT_TRUE(saw_slow);   // the /predict render dwarfs 1us
    EXPECT_TRUE(saw_tagged);
}

TEST(Observability, ConcurrentAccessLogStaysWellFormed)
{
    server::QueryService::Options options;
    options.log_level = obs::LogLevel::Info;
    server::QueryService service(sliceCatalog(), defaultDb(),
                                 options);
    std::mutex sink_mutex;
    std::vector<std::string> lines;
    service.logger().setSink([&](std::string_view line) {
        std::lock_guard<std::mutex> lock(sink_mutex);
        lines.emplace_back(line);
    });

    ThreadPool pool(8);
    pool.parallelFor(128, [&](size_t i, size_t) {
        HttpRequest request = get(
            i % 2 == 0 ? "/healthz"
                       : "/instr/ADD_R64_R64?uarch=SKL");
        request.headers.emplace_back("X-Request-Id",
                                     "req-" + std::to_string(i));
        service.handle(request);
    });

    ASSERT_EQ(lines.size(), 128u);
    std::set<std::string> ids;
    for (const std::string &line : lines) {
        ASSERT_TRUE(isValidJsonObject(line)) << line;
        size_t at = line.find("\"id\":\"req-");
        ASSERT_NE(at, std::string::npos) << line;
        ids.insert(line.substr(at, line.find('"', at + 7) - at));
    }
    EXPECT_EQ(ids.size(), 128u);   // no line lost, none interleaved
}

TEST(HttpServerSocket, RequestIdsPropagateThroughPipelining)
{
    auto service = makeService();
    server::HttpServer http(*service);
    http.start();

    int fd = connectTo(http.port());
    ASSERT_GE(fd, 0);
    // Two pipelined requests in one write, distinct client IDs: each
    // response must echo its own request's ID, in order.
    sendRaw(fd,
            "GET /healthz HTTP/1.1\r\nHost: x\r\n"
            "X-Request-Id: pipeline-a\r\n\r\n"
            "GET /uarchs HTTP/1.1\r\nHost: x\r\n"
            "X-Request-Id: pipeline-b\r\n\r\n");
    std::string carry;
    std::string first = readOneResponse(fd, carry);
    std::string second = readOneResponse(fd, carry);
    EXPECT_NE(first.find("X-Request-Id: pipeline-a\r\n"),
              std::string::npos)
        << first;
    EXPECT_EQ(first.find("pipeline-b"), std::string::npos);
    EXPECT_NE(second.find("X-Request-Id: pipeline-b\r\n"),
              std::string::npos)
        << second;
    EXPECT_EQ(second.find("pipeline-a"), std::string::npos);

    // A third request on the same connection without an ID gets a
    // fresh minted one.
    sendRaw(fd, "GET /healthz HTTP/1.1\r\nHost: x\r\n"
                "Connection: close\r\n\r\n");
    std::string third = readOneResponse(fd, carry);
    size_t at = third.find("X-Request-Id: ");
    ASSERT_NE(at, std::string::npos) << third;
    EXPECT_EQ(third.find("pipeline", at), std::string::npos);
    ::close(fd);
    http.stop();
}

TEST(HttpServerSocket, TransportErrorsCarryRequestIds)
{
    auto service = makeService();
    server::HttpServer http(*service);
    http.start();

    // Unparseable request head: refused at the transport layer with
    // a minted correlation ID.
    int fd = connectTo(http.port());
    ASSERT_GE(fd, 0);
    sendRaw(fd, "NOT A REQUEST\r\n\r\n");
    std::string carry;
    std::string refused = readOneResponse(fd, carry);
    EXPECT_NE(refused.find("HTTP/1.1 400"), std::string::npos)
        << refused;
    EXPECT_NE(refused.find("X-Request-Id: "), std::string::npos)
        << refused;
    ::close(fd);

    // Parsed head with a bad body declaration: the client's ID is
    // honored even on the refusal path.
    fd = connectTo(http.port());
    ASSERT_GE(fd, 0);
    sendRaw(fd, "POST /predict HTTP/1.1\r\nHost: x\r\n"
                "X-Request-Id: still-mine\r\n"
                "Content-Length: nonsense\r\n\r\n");
    std::string bad_length = readOneResponse(fd, carry);
    EXPECT_NE(bad_length.find("HTTP/1.1 400"), std::string::npos)
        << bad_length;
    EXPECT_NE(bad_length.find("X-Request-Id: still-mine\r\n"),
              std::string::npos)
        << bad_length;
    ::close(fd);
    http.stop();
}

} // namespace
} // namespace uops::test
