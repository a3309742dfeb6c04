/**
 * @file
 * uopsq — the end-to-end driver for the results-serving subsystem:
 * characterize → sharded catalog → serve → query, with incremental
 * re-sweeps and zero-restart reloads.
 *
 * Subcommands:
 *
 *   uopsq characterize --out DIR [--arches NHM,SKL | --uarch SKL]
 *                      [--threads N] [--mod N] [--xml RESULTS.xml]
 *                      [--progress]
 *       Run the batch sweep and write a sharded catalog (one shard
 *       file per uarch + generation manifest) under DIR. When DIR
 *       already holds a catalog this is an *incremental* sweep: only
 *       the listed uarches are re-characterized (default: all present)
 *       and their fresh shards are spliced into a new generation —
 *       untouched shards are not rewritten, just hash-verified.
 *       --progress registers per-uarch sweep counters in the global
 *       metrics registry and prints a throttled done/failed/rate line
 *       to stderr while the sweep runs.
 *
 *   uopsq ingest RESULTS.xml --out DIR
 *       Re-ingest a previously exported results XML (uopsInfo or
 *       uopsBatch root) into a catalog — the XML ingest path, one
 *       shard per uarch, bit-identical to what the sweep wrote.
 *
 *   uopsq info PATH
 *       Print generation and per-shard record counts / content
 *       hashes. PATH must be a catalog directory (every PATH below
 *       too); older single-file containers are refused by version.
 *
 *   uopsq query PATH [--uarch SKL] [--name N] [--mnemonic M]
 *                    [--extension E] [--uses p05] [--uses-only p015]
 *                    [--uses-exact p05] [--tp-min X] [--tp-max X]
 *                    [--lat-min N] [--lat-max N] [--uops-min N]
 *                    [--uops-max N] [--limit N]
 *       Scan-executor search; prints one line per matching record.
 *
 *   uopsq diff PATH ARCH_A ARCH_B
 *       Cross-uarch comparison of shared variants.
 *
 *   uopsq predict PATH --uarch SKL [--asm "ADD RAX, RBX; ..."]
 *                      [--file KERNEL.s]
 *       Simulate a basic block offline through the same code path
 *       /predict serves: cycle-level throughput, port pressure, and
 *       (where the catalog covers the kernel) the static analysis.
 *       The listing comes from --asm, --file, or stdin; ';' and
 *       newlines both separate instructions, '#' starts a comment.
 *       Prints the JSON response body; exits non-zero unless the
 *       prediction succeeded.
 *
 *   uopsq serve PATH [--port P] [--address A] [--threads N]
 *                    [--reactor-threads N] [--watch SECONDS]
 *                    [--drain-ms MS] [--log-level LEVEL]
 *       Start the HTTP/1.1 JSON API (port 0 picks an ephemeral port;
 *       the chosen port is printed). Requests are served through the
 *       epoll reactor (--reactor-threads, default min(4, hardware)),
 *       which answers cache, blob and 304 hits inline and hands the
 *       rest to a pool of --threads workers (default: hardware).
 *       Catalog shards are memory-mapped zero-copy.
 *       POST /reload hot-swaps to the current on-disk generation
 *       without dropping a request; --watch polls
 *       the manifest and reloads automatically when a characterize
 *       run publishes a new generation. SIGTERM/SIGINT drain
 *       gracefully: new connections are refused, in-flight responses
 *       are sent whole, and only after --drain-ms (default 5000) are
 *       stragglers forced. Catalog recovery (a corrupt newest
 *       generation falling back to an older verified one) is logged
 *       to stderr at startup and on every reload. serve runs at log
 *       level info by default (one structured JSON startup record,
 *       one access-log line per request on stderr); --log-level
 *       debug|info|warn|error adjusts it. GET /metrics serves the
 *       Prometheus-text exposition of the whole process.
 *
 *   Any command run with UOPS_TRACE=<file> in the environment writes
 *   a Chrome trace-event JSON file on exit (open in about:tracing or
 *   Perfetto): per-variant spans from characterize, per-request spans
 *   from serve.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/batch.h"
#include "db/catalog.h"
#include "isa/parser.h"
#include "isa/results_xml.h"
#include "sim/pipeline.h"
#include "server/http_server.h"
#include "support/hash.h"
#include "support/obs/log.h"
#include "support/obs/metrics.h"
#include "support/status.h"
#include "support/strings.h"

namespace {

using namespace uops;

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: uopsq characterize --out DIR [--arches A,B | --uarch A]"
        " [--threads N] [--mod N] [--xml OUT] [--progress]\n"
        "       uopsq ingest RESULTS.xml --out DIR\n"
        "       uopsq info PATH\n"
        "       uopsq query PATH [filters...]\n"
        "       uopsq diff PATH ARCH_A ARCH_B\n"
        "       uopsq predict PATH --uarch A [--asm LISTING |"
        " --file KERNEL.s]\n"
        "       uopsq serve PATH [--port P] [--address A] [--threads N]"
        " [--reactor-threads N]"
        " [--watch SECONDS] [--drain-ms MS]"
        " [--log-level LEVEL]\n");
    std::exit(1);
}

/** Flag parser: positionals plus --key value options. */
struct Args
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> options;

    const std::string *
    option(const std::string &key) const
    {
        auto it = options.find(key);
        return it == options.end() ? nullptr : &it->second;
    }

    long
    intOption(const std::string &key, long fallback) const
    {
        const std::string *text = option(key);
        if (text == nullptr)
            return fallback;
        auto value = parseInt(*text);
        fatalIf(!value, "option --", key, " expects an integer, got '",
                *text, "'");
        return *value;
    }
};

/** Options that are bare flags (present/absent, no value). */
bool
isBoolFlag(const std::string &key)
{
    return key == "progress";
}

Args
parseArgs(int argc, char **argv, int from)
{
    Args args;
    for (int i = from; i < argc; ++i) {
        std::string arg = argv[i];
        if (startsWith(arg, "--")) {
            std::string key = arg.substr(2);
            if (isBoolFlag(key)) {
                args.options[key] = "1";
                continue;
            }
            fatalIf(i + 1 >= argc, "option ", arg, " requires a value");
            args.options[key] = argv[++i];
        } else {
            args.positional.push_back(arg);
        }
    }
    return args;
}

std::vector<uarch::UArch>
parseArches(const std::string &list)
{
    std::vector<uarch::UArch> out;
    for (const std::string &name : split(list, ','))
        out.push_back(uarch::parseUArch(name));
    fatalIf(out.empty(), "empty uarch list");
    return out;
}

int
cmdCharacterize(const Args &args)
{
    const std::string *out_dir = args.option("out");
    fatalIf(out_dir == nullptr, "characterize: --out is required");

    // An existing manifest makes this an incremental run: the base
    // generation's untouched shards are spliced through unchanged.
    std::shared_ptr<const db::DatabaseCatalog> base;
    if (db::readCatalogGeneration(*out_dir))
        base = db::loadCatalogDir(*out_dir);

    const std::string *arch_list = args.option("arches");
    if (arch_list == nullptr)
        arch_list = args.option("uarch");
    std::vector<uarch::UArch> arches;
    if (arch_list != nullptr) {
        arches = parseArches(*arch_list);
    } else if (base) {
        for (const db::ShardEntry &entry : base->shards())
            arches.push_back(entry.arch);
        fatalIf(arches.empty(), "characterize: existing catalog has "
                                "no shards and no --arches given");
    } else {
        arches = {uarch::UArch::Nehalem, uarch::UArch::Skylake};
    }

    core::BatchOptions options;
    options.num_threads =
        static_cast<size_t>(args.intOption("threads", 0));
    long mod = args.intOption("mod", 1);
    fatalIf(mod < 1, "--mod must be >= 1");
    if (mod > 1)
        options.characterizer.filter =
            [mod](const isa::InstrVariant &v) {
                return v.id() % mod == 0;
            };

    auto instrs = isa::buildDefaultDb();
    std::printf("%s %zu uarches (mod %ld)...\n",
                base ? "re-characterizing" : "characterizing",
                arches.size(), mod);

    // --progress: publish sweep counters to the global registry and
    // echo a throttled rate line. The counters are what a scraper of
    // a co-resident /metrics endpoint would see; the stderr line is
    // for a human watching the terminal.
    std::atomic<size_t> done{0};
    std::atomic<size_t> failed{0};
    std::mutex progress_mutex;
    auto sweep_start = std::chrono::steady_clock::now();
    auto last_print = sweep_start;
    if (args.option("progress") != nullptr) {
        options.metrics = &obs::Registry::global();
        options.on_variant_done = [&](uarch::UArch,
                                      const isa::InstrVariant &,
                                      bool ok) {
            size_t d = done.fetch_add(1) + 1;
            if (!ok)
                failed.fetch_add(1);
            std::lock_guard<std::mutex> lock(progress_mutex);
            auto now = std::chrono::steady_clock::now();
            if (now - last_print <
                std::chrono::milliseconds(500))
                return;
            last_print = now;
            double seconds =
                std::chrono::duration<double>(now - sweep_start)
                    .count();
            std::fprintf(stderr,
                         "progress: %zu done, %zu failed, "
                         "%.1f instr/s\n",
                         d, failed.load(),
                         seconds > 0 ? static_cast<double>(d) /
                                           seconds
                                     : 0.0);
        };
    }

    // Results stream straight into per-uarch shard databases while
    // the sweep runs; the full per-variant report is only retained
    // when the XML artifact was requested.
    const std::string *xml_path = args.option("xml");
    options.keep_results = xml_path != nullptr;

    core::CharacterizationReport report;
    const core::SweepMemoTotals memo_before = core::sweepMemoTotals();
    const sim::CopyTotals copies_before = sim::copyTotals();
    auto catalog = db::runCatalogSweep(*instrs, arches, options,
                                       base.get(), &report);
    const core::SweepMemoTotals memo = core::sweepMemoTotals();
    const sim::CopyTotals copies = sim::copyTotals();
    const uint64_t hits = memo.hits - memo_before.hits;
    const uint64_t simulations = memo.misses - memo_before.misses;
    const uint64_t lookups = hits + simulations;
    const uint64_t copies_run = copies.run - copies_before.run;
    const uint64_t copies_skipped = copies.skipped - copies_before.skipped;
    auto percent = [](uint64_t part, uint64_t whole) {
        return whole > 0 ? 100.0 * static_cast<double>(part) /
                               static_cast<double>(whole)
                         : 0.0;
    };
    std::printf("%zu tasks, %zu failed, %llu simulations, %.1f%% memo "
                "hits, %.1f%% body copies fast-forwarded\n",
                report.numTasks(), report.numFailed(),
                static_cast<unsigned long long>(simulations),
                percent(hits, lookups),
                percent(copies_skipped, copies_run));

    if (xml_path != nullptr) {
        std::ofstream xml(*xml_path);
        xml << report.toXmlString();
        fatalIf(!xml, "cannot write ", *xml_path);
        std::printf("wrote %s\n", xml_path->c_str());
    }

    db::saveCatalogDir(*catalog, *out_dir);
    std::printf("wrote %s generation %llu (%zu records, %zu shards)\n",
                out_dir->c_str(),
                static_cast<unsigned long long>(
                    catalog->generation()),
                catalog->numRecords(), catalog->shards().size());
    return 0;
}

int
cmdIngest(const Args &args)
{
    fatalIf(args.positional.size() != 1,
            "ingest: expected exactly one RESULTS.xml");
    const std::string *out_dir = args.option("out");
    fatalIf(out_dir == nullptr, "ingest: --out is required");

    std::ifstream in(args.positional[0]);
    fatalIf(!in, "cannot open ", args.positional[0]);
    std::ostringstream text;
    text << in.rdbuf();

    auto instrs = isa::buildDefaultDb();
    isa::ResultsDoc doc = isa::parseResultsXml(text.str());
    auto catalog = std::make_shared<db::DatabaseCatalog>(
        db::ingestResults(doc, instrs.get()), 1);
    db::saveCatalogDir(*catalog, *out_dir);
    std::printf("wrote %s (%zu records from %zu uarches)\n",
                out_dir->c_str(), catalog->numRecords(),
                doc.uarches.size());
    return 0;
}

int
cmdInfo(const Args &args)
{
    fatalIf(args.positional.size() != 1, "info: expected PATH");
    db::RecoveryReport report;
    auto catalog = db::openCatalog(args.positional[0],
                                   db::LoadMode::Mmap, &report);
    if (report.recovered || !report.events.empty())
        std::printf("recovery: %s\n", report.summary().c_str());
    std::printf("generation %llu, %zu records\n",
                static_cast<unsigned long long>(
                    catalog->generation()),
                catalog->numRecords());
    for (const db::ShardEntry &entry : catalog->shards())
        std::printf("  %-4s %5llu records  %s  %s\n",
                    uarch::uarchShortName(entry.arch).c_str(),
                    static_cast<unsigned long long>(entry.records),
                    hashHex(entry.hash).c_str(),
                    entry.file.c_str());
    return 0;
}

int
cmdQuery(const Args &args)
{
    fatalIf(args.positional.size() != 1, "query: expected PATH");
    auto catalog = db::openCatalog(args.positional[0]);

    db::Query query;
    if (const std::string *v = args.option("uarch"))
        query.arch = uarch::parseUArch(*v);
    if (const std::string *v = args.option("name"))
        query.name = *v;
    if (const std::string *v = args.option("mnemonic"))
        query.mnemonic = *v;
    if (const std::string *v = args.option("extension"))
        query.extension = *v;
    if (const std::string *v = args.option("uses"))
        query.uses_ports = uarch::parsePortMask(*v);
    if (const std::string *v = args.option("uses-only"))
        query.ports_subset = uarch::parsePortMask(*v);
    if (const std::string *v = args.option("uses-exact"))
        query.ports_exact = uarch::parsePortMask(*v);
    // Double-valued CLI bounds convert to fixed point exactly once,
    // here; Query carries Cycles.
    if (const std::string *v = args.option("tp-min")) {
        auto parsed = parseDouble(*v);
        fatalIf(!parsed, "option --tp-min expects a number, "
                         "got '", *v, "'");
        query.tp_min = db::tpBoundMin(*parsed);
    }
    if (const std::string *v = args.option("tp-max")) {
        auto parsed = parseDouble(*v);
        fatalIf(!parsed, "option --tp-max expects a number, "
                         "got '", *v, "'");
        query.tp_max = db::tpBoundMax(*parsed);
    }
    query.lat_min = args.option("lat-min")
                        ? std::optional<int>(static_cast<int>(
                              args.intOption("lat-min", 0)))
                        : std::nullopt;
    query.lat_max = args.option("lat-max")
                        ? std::optional<int>(static_cast<int>(
                              args.intOption("lat-max", 0)))
                        : std::nullopt;
    query.uops_min = args.option("uops-min")
                         ? std::optional<int>(static_cast<int>(
                               args.intOption("uops-min", 0)))
                         : std::nullopt;
    query.uops_max = args.option("uops-max")
                         ? std::optional<int>(static_cast<int>(
                               args.intOption("uops-max", 0)))
                         : std::nullopt;
    query.limit =
        static_cast<size_t>(args.intOption("limit", 1 << 20));

    std::vector<db::RecordView> records = catalog->search(query);
    std::printf("%zu match(es)\n", records.size());
    for (const db::RecordView &rec : records) {
        std::printf("  %-4s %-24s %-6s tp=%-6s lat<=%-3d %s\n",
                    uarch::uarchShortName(rec.arch()).c_str(),
                    std::string(rec.name()).c_str(),
                    std::string(rec.extension()).c_str(),
                    rec.tpMeasured().str().c_str(),
                    rec.maxLatency(),
                    rec.portUsage().toString().c_str());
    }
    return 0;
}

int
cmdDiff(const Args &args)
{
    fatalIf(args.positional.size() != 3,
            "diff: expected PATH ARCH_A ARCH_B");
    auto catalog = db::openCatalog(args.positional[0]);
    uarch::UArch a = uarch::parseUArch(args.positional[1]);
    uarch::UArch b = uarch::parseUArch(args.positional[2]);

    db::CatalogDiff diff = catalog->diff(a, b);
    std::printf("%zu shared variants, %zu changed, %zu only-%s, "
                "%zu only-%s\n",
                diff.common, diff.changed.size(), diff.only_a.size(),
                args.positional[1].c_str(), diff.only_b.size(),
                args.positional[2].c_str());
    for (const db::CatalogDiffEntry &entry : diff.changed) {
        std::printf("  %-24s", std::string(entry.a.name()).c_str());
        if (entry.tp_differs)
            std::printf("  tp %s -> %s",
                        entry.a.tpMeasured().str().c_str(),
                        entry.b.tpMeasured().str().c_str());
        if (entry.ports_differ)
            std::printf("  ports %s -> %s",
                        entry.a.portUsage().toString().c_str(),
                        entry.b.portUsage().toString().c_str());
        if (entry.latency_differs)
            std::printf("  latency differs");
        std::printf("\n");
    }
    return 0;
}

int
cmdPredict(const Args &args)
{
    fatalIf(args.positional.size() != 1, "predict: expected PATH");
    const std::string *arch = args.option("uarch");
    fatalIf(arch == nullptr, "predict: --uarch is required");

    std::string listing;
    if (const std::string *text = args.option("asm")) {
        listing = *text;
    } else if (const std::string *file = args.option("file")) {
        std::ifstream in(*file);
        fatalIf(!in, "cannot open ", *file);
        std::ostringstream text;
        text << in.rdbuf();
        listing = text.str();
    } else {
        std::ostringstream text;
        text << std::cin.rdbuf();
        listing = text.str();
    }

    auto instrs = isa::buildDefaultDb();
    server::QueryService service(
        db::openCatalog(args.positional[0]), *instrs);

    // Drive the exact request path the HTTP server serves, so the
    // offline tool can never drift from the service.
    server::HttpRequest request;
    request.method = "POST";
    request.path = "/predict";
    request.target = "/predict?uarch=" + *arch;
    request.query["uarch"] = *arch;
    request.body = std::move(listing);
    server::HttpResponse response = service.handle(request);
    std::printf("%s\n", response.body.c_str());
    return response.status == 200 ? 0 : 1;
}

int
cmdServe(const Args &args)
{
    fatalIf(args.positional.size() != 1, "serve: expected PATH");
    const std::string path = args.positional[0];
    auto instrs = isa::buildDefaultDb();

    // Serving is the one mode where the structured access log earns
    // its cost: default to info (startup record + one line per
    // request on stderr) instead of the library-wide warn.
    server::QueryService::Options service_options;
    service_options.log_level = obs::LogLevel::Info;
    if (const std::string *level = args.option("log-level")) {
        auto parsed = obs::parseLogLevel(*level);
        fatalIf(!parsed, "option --log-level expects "
                         "debug|info|warn|error, got '", *level, "'");
        service_options.log_level = *parsed;
    }

    // The service owns the only long-lived handle: after a hot swap
    // the old generation (mmaps included) must be able to die with
    // its last in-flight request, so no local CatalogPtr may outlive
    // this scope.
    db::RecoveryReport open_report;
    server::QueryService service(
        db::openCatalog(path, db::LoadMode::Mmap, &open_report),
        *instrs, service_options);
    if (open_report.recovered || !open_report.events.empty()) {
        std::fprintf(stderr, "catalog recovery: %s\n",
                     open_report.summary().c_str());
        for (const std::string &event : open_report.events)
            std::fprintf(stderr, "  %s\n", event.c_str());
    }
    service.setReloader([path](db::RecoveryReport &report) {
        auto next = db::openCatalog(path, db::LoadMode::Mmap, &report);
        if (report.recovered || !report.events.empty()) {
            std::fprintf(stderr, "catalog recovery: %s\n",
                         report.summary().c_str());
            for (const std::string &event : report.events)
                std::fprintf(stderr, "  %s\n", event.c_str());
        }
        return next;
    });

    server::HttpServer::Options options;
    options.port =
        static_cast<uint16_t>(args.intOption("port", 0));
    if (const std::string *address = args.option("address"))
        options.bind_address = *address;
    options.num_threads =
        static_cast<size_t>(args.intOption("threads", 0));
    long reactor_threads = args.intOption("reactor-threads", 0);
    fatalIf(reactor_threads < 0, "--reactor-threads must be >= 0");
    options.reactor_threads = static_cast<size_t>(reactor_threads);

    long watch_seconds = args.intOption("watch", 0);
    fatalIf(watch_seconds < 0, "--watch must be >= 0");
    long drain_ms = args.intOption("drain-ms", 5000);
    fatalIf(drain_ms < 0, "--drain-ms must be >= 0");

    server::HttpServer http(service, options);
    http.start();
    std::printf("serving %zu records (generation %llu) on "
                "http://%s:%u/\n",
                service.catalog()->numRecords(),
                static_cast<unsigned long long>(
                    service.catalog()->generation()),
                options.bind_address.c_str(), http.port());
    std::printf("endpoints: /healthz /uarchs /instr/{name} /search "
                "/diff /predict /reload /stats /metrics\n");
    // The machine-readable twin of the banner above: one structured
    // record with everything an operator needs to identify this
    // process in aggregated logs.
    service.logger()
        .event(obs::LogLevel::Info, "serve", "startup")
        .str("address", options.bind_address)
        .num("port", static_cast<uint64_t>(http.port()))
        .num("generation", service.catalog()->generation())
        .num("records", static_cast<uint64_t>(
                            service.catalog()->numRecords()))
        .num("shards", static_cast<uint64_t>(
                           service.catalog()->shards().size()))
        .num("http_workers",
             static_cast<uint64_t>(http.numWorkers()))
        .num("drain_ms", static_cast<uint64_t>(drain_ms))
        .num("watch_seconds", static_cast<uint64_t>(watch_seconds));
    if (watch_seconds > 0)
        std::printf("watching %s every %lds for new generations\n",
                    path.c_str(), watch_seconds);
    std::fflush(stdout);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    auto last_poll = std::chrono::steady_clock::now();
    while (!g_stop && http.running()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (watch_seconds <= 0)
            continue;
        auto now = std::chrono::steady_clock::now();
        if (now - last_poll < std::chrono::seconds(watch_seconds))
            continue;
        last_poll = now;
        // Cheap manifest-header peek; only a published newer
        // generation triggers the full reload + swap.
        auto on_disk = db::readCatalogGeneration(path);
        if (!on_disk ||
            *on_disk == service.catalog()->generation())
            continue;
        try {
            service.reload();
            std::printf("reloaded: generation %llu now serving\n",
                        static_cast<unsigned long long>(
                            service.catalog()->generation()));
            std::fflush(stdout);
        } catch (const std::exception &e) {
            // Keep serving the current generation; a publisher may
            // still be mid-write.
            std::fprintf(stderr, "reload failed: %s\n", e.what());
        }
    }
    // Graceful drain: stop accepting, let in-flight requests finish
    // whole (bounded by --drain-ms), then force whatever remains.
    bool clean = http.drain(std::chrono::milliseconds(drain_ms));
    std::printf(clean ? "stopped (drained cleanly)\n"
                      : "stopped (drain deadline hit, forced "
                        "remaining connections)\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    if (argc < 2)
        usage();
    std::string command = argv[1];
    Args args = parseArgs(argc, argv, 2);

    if (command == "characterize")
        return cmdCharacterize(args);
    if (command == "ingest")
        return cmdIngest(args);
    if (command == "info")
        return cmdInfo(args);
    if (command == "query")
        return cmdQuery(args);
    if (command == "diff")
        return cmdDiff(args);
    if (command == "predict")
        return cmdPredict(args);
    if (command == "serve")
        return cmdServe(args);
    usage();
} catch (const std::exception &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
