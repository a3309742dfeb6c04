/**
 * @file
 * pb — the benchmark's harness binary. run.py orchestrates it; every
 * subcommand prints one JSON object on stdout.
 *
 *   pb fingerprint
 *       CPU model and ISA flags (cpuid), hardware threads, compiler,
 *       flags and build type of this binary.
 *
 *   pb build --out DIR --arches A,B,.. --workers N [--trace 1]
 *            [--probe-threads N]
 *       The `uopsq characterize` path on the listed uarches and the
 *       full ISA: streaming sweep -> fsync commit into DIR (fresh) ->
 *       hash-verified mmap reopen -> publish (QueryService
 *       constructor, which renders the blobs). Reports phase times,
 *       the catalog content hash and the accuracy of the published
 *       catalog against the simulator's ground truth. --trace wraps
 *       the ingestor in a timing sink, samples process CPU time and
 *       afterwards runs the core/sim probe (analyzers called
 *       directly, one measurement memo per uarch).
 *
 *   pb info DIR
 *       The catalog facts the workload generator draws from: served
 *       uarches, variant names per uarch, mnemonics, extensions and an
 *       assembler pool (one round-tripping line per variant).
 *
 *   pb serve DIR --reactor-threads N --pool-threads N
 *            --engine-threads N
 *       QueryService + HttpServer on an ephemeral loopback port with
 *       every thread count explicit. Prints the port once listening
 *       and, after SIGTERM, the server-side counters and peak RSS.
 *
 *   pb load --port P --requests FILE --seconds S --threads N
 *           [--depth D] [--think-ms T] [--warmup S]
 *           [--reloads-after N] [--samples-out FILE]
 *       One-process closed-loop load generator. Each thread is one
 *       user with its own keep-alive connection: it sends a pipelined
 *       batch of D requests (the next ones of the shared request
 *       list, which wraps around), reads every answer, thinks T ms,
 *       and repeats. Latency counts from the batch's send; lateness is
 *       how far a send trails its intended time.
 *
 *   pb verify DIR --requests FILE --samples FILE
 *       Re-renders each sampled request through QueryService::handle
 *       (no sockets) and byte-compares it with the wire response,
 *       ignoring X-Request-Id and X-Cache.
 *
 *   pb replay DIR --requests FILE --passes N [--reloads-after N]
 *             --engine-threads N
 *       Per-layer serving costs without sockets: handle() time per
 *       request class, DatabaseCatalog::search and ScanExecutor on the
 *       /search predicates, BlockPredictor on the /predict blocks, and
 *       swapCatalog.
 *
 * Request files are tab-separated lines:
 *   class  method  target  inm(0|1)  sample(0|1)  body
 * where inm=1 sends If-None-Match with the generation ETag and the
 * body (POST /predict) separates instructions with ';'.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <cpuid.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/batch.h"
#include "core/blocking.h"
#include "core/characterize.h"
#include "core/codegen.h"
#include "db/catalog.h"
#include "db/scan.h"
#include "isa/kernel.h"
#include "isa/parser.h"
#include "server/http.h"
#include "server/http_server.h"
#include "server/json.h"
#include "server/service.h"
#include "sim/block_predict.h"
#include "sim/measurement_cache.h"
#include "support/hash.h"
#include "support/status.h"
#include "support/strings.h"
#include "uarch/timing.h"
#include "uarch/timing_db.h"

namespace {

using namespace uops;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- util

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Peak resident set of this process in MiB. */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** User + system CPU seconds of this process. */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/** Exact quantile by nearest rank on a copy (q in [0, 1]). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
    std::nth_element(values.begin(), values.begin() + rank,
                     values.end());
    return values[rank];
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Minimal JSON object writer with full-precision numbers. */
class Json
{
  public:
    Json &
    num(const std::string &key, double v)
    {
        char buf[40];
        if (!std::isfinite(v))
            v = 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    Json &
    str(const std::string &key, std::string_view v)
    {
        return raw(key, "\"" + server::jsonEscape(v) + "\"");
    }
    Json &
    raw(const std::string &key, const std::string &json)
    {
        if (!out_.empty())
            out_ += ", ";
        out_ += "\"" + server::jsonEscape(key) + "\": " + json;
        return *this;
    }
    std::string text() const { return "{" + out_ + "}"; }

  private:
    std::string out_;
};

std::string
jsonList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + server::jsonEscape(items[i]) + "\"";
    }
    return out + "]";
}

/** --key value options after the subcommand (and positionals). */
struct Args
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> options;

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = options.find(key);
        if (it != options.end())
            return it->second;
        fatalIf(fallback.empty(), "pb: missing --", key);
        return fallback;
    }
    long
    num(const std::string &key, long fallback) const
    {
        auto it = options.find(key);
        if (it == options.end())
            return fallback;
        auto v = parseInt(it->second);
        fatalIf(!v, "pb: --", key, " expects an integer");
        return *v;
    }
    double
    real(const std::string &key, double fallback) const
    {
        auto it = options.find(key);
        if (it == options.end())
            return fallback;
        auto v = parseDouble(it->second);
        fatalIf(!v, "pb: --", key, " expects a number");
        return *v;
    }
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (startsWith(arg, "--")) {
            fatalIf(i + 1 >= argc, "pb: ", arg, " needs a value");
            args.options[arg.substr(2)] = argv[++i];
        } else {
            args.positional.push_back(arg);
        }
    }
    return args;
}

/** Service options shared by serve, verify and replay. */
server::QueryService::Options
serviceOptions(const Args &args)
{
    server::QueryService::Options options;
    options.engine.num_threads =
        static_cast<size_t>(args.num("engine-threads", 2));
    return options;
}

// --------------------------------------------------------- fingerprint

int
cmdFingerprint()
{
    // Brand string: cpuid leaves 0x80000002..4, 16 bytes each.
    char brand[49] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i) {
            unsigned regs[4] = {};
            __get_cpuid(0x80000002 + i, &regs[0], &regs[1], &regs[2],
                        &regs[3]);
            std::memcpy(brand + 16 * i, regs, sizeof regs);
        }
    }
    std::string model = brand;
    model.erase(0, model.find_first_not_of(' '));
    __builtin_cpu_init();
    std::vector<std::string> flags;
#define PB_FLAG(name)                                                  \
    if (__builtin_cpu_supports(name))                                  \
        flags.push_back(name);
    PB_FLAG("sse4.2")
    PB_FLAG("avx")
    PB_FLAG("avx2")
    PB_FLAG("bmi2")
    PB_FLAG("avx512f")
    PB_FLAG("avx512bw")
    PB_FLAG("avx512vl")
#undef PB_FLAG
    Json out;
    out.str("cpu_model", model)
        .raw("isa_flags", jsonList(flags))
        .num("nproc", std::thread::hardware_concurrency())
        .str("compiler", PB_COMPILER)
        .str("cxx_flags", trim(PB_CXX_FLAGS))
        .str("build_type", PB_BUILD_TYPE);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// --------------------------------------------------------------- build

/** Times the catalog ingestor: every onVariant/finish the sweep makes.
 *  Calls are serialized by the sweep, so plain accumulation is safe. */
class TimingSink final : public core::SweepSink
{
  public:
    explicit TimingSink(core::SweepSink &inner) : inner_(inner) {}
    void
    onVariant(uarch::UArch arch,
              const core::VariantOutcome &outcome) override
    {
        auto t0 = Clock::now();
        inner_.onVariant(arch, outcome);
        busy_ms_ += msBetween(t0, Clock::now());
    }
    void
    finish() override
    {
        auto t0 = Clock::now();
        inner_.finish();
        busy_ms_ += msBetween(t0, Clock::now());
    }
    double busyMs() const { return busy_ms_; }

  private:
    core::SweepSink &inner_;
    double busy_ms_ = 0.0;
};

std::vector<uarch::UArch>
parseArches(const std::string &list)
{
    std::vector<uarch::UArch> out;
    for (const std::string &name : split(list, ','))
        out.push_back(uarch::parseUArch(name));
    fatalIf(out.empty(), "pb: empty uarch list");
    return out;
}

struct Accuracy
{
    size_t records = 0;
    size_t port_matches = 0;
    size_t latency_pairs = 0;
    size_t latency_matches = 0;
    std::vector<std::string> port_misses;
};

/** Recompute accuracy from a published catalog: port usage against
 *  PortUsage::ofTiming(synthesizeTiming), and every non-upper-bound,
 *  non-divider latency pair against trueLatency within the
 *  characterize_test band [truth - 0.1, truth + 1.1]. */
Accuracy
catalogAccuracy(const db::DatabaseCatalog &catalog,
                const isa::InstrDb &instrs)
{
    Accuracy acc;
    for (const db::ShardEntry &entry : catalog.shards()) {
        uarch::TimingDb truth_db(instrs, entry.arch);
        const db::InstructionDatabase &shard = *entry.db;
        for (uint32_t row = 0; row < shard.numRecords(); ++row) {
            db::RecordView rec(shard, row);
            ++acc.records;
            const isa::InstrVariant *variant =
                instrs.byName(std::string(rec.name()));
            fatalIf(variant == nullptr, "pb: unknown variant ",
                    std::string(rec.name()));
            const uarch::TimingInfo &truth = truth_db.timing(*variant);
            if (rec.portUsage() == uarch::PortUsage::ofTiming(truth.uops))
                ++acc.port_matches;
            else
                acc.port_misses.push_back(
                    uarch::uarchShortName(entry.arch) + ":" +
                    std::string(rec.name()));
            if (variant->attrs().uses_divider)
                continue;
            for (const isa::ResultLatency &pair : rec.latencies()) {
                if (pair.upper_bound)
                    continue;
                auto expected = uarch::trueLatency(
                    truth.uops, pair.src_op, pair.dst_op);
                if (!expected)
                    continue;
                ++acc.latency_pairs;
                double got = pair.cycles.toDouble();
                if (got >= *expected - 0.1 && got <= *expected + 1.1)
                    ++acc.latency_matches;
            }
        }
    }
    return acc;
}

uint64_t
directoryBytes(const std::string &dir)
{
    uint64_t total = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.is_regular_file())
            total += entry.file_size();
    return total;
}

/** Per-uarch analyzer timings of the core probe. */
struct ProbeTotals
{
    double setup_ms = 0, latency_ms = 0, ports_ms = 0, tp_ms = 0;
    double warm_ms = 0;   ///< same analyzers again, memo all hits
    uint64_t hits = 0, misses = 0;
    size_t variants = 0;
};

/** Algorithm 1-2 on one uarch with the analyzers called directly
 *  (the composition Characterizer::characterize uses), on one
 *  thread, with one MeasurementCache. A second pass over the warm
 *  memo separates analyzer overhead from simulation. */
ProbeTotals
probeUArch(const isa::InstrDb &instrs, uarch::UArch arch)
{
    ProbeTotals totals;
    core::Characterizer probe(instrs, arch);
    uarch::TimingDb timing(instrs, arch);
    sim::MeasurementHarness harness(timing);
    sim::MeasurementCache cache;
    harness.setCache(&cache);

    auto t0 = Clock::now();
    core::ChainInstruments instruments =
        core::calibrateInstruments(harness);
    core::BlockingFinder finder(harness);
    core::BlockingSet sse = finder.find(false);
    core::BlockingSet avx = harness.info().hasExtension(
                                isa::Extension::Avx)
                                ? finder.find(true)
                                : sse;
    totals.setup_ms = msBetween(t0, Clock::now());

    core::LatencyAnalyzer lat(harness, instruments);
    core::PortUsageAnalyzer ports(harness, sse, avx);
    core::ThroughputAnalyzer tp(harness);
    std::vector<const isa::InstrVariant *> variants;
    for (const isa::InstrVariant *v : instrs.all())
        if (probe.isMeasurable(*v))
            variants.push_back(v);
    totals.variants = variants.size();

    for (int pass = 0; pass < 2; ++pass) {
        for (const isa::InstrVariant *v : variants) {
            try {
                auto a = Clock::now();
                core::LatencyResult l = lat.analyze(*v);
                auto b = Clock::now();
                ports.analyze(*v, l.maxLatency());
                auto c = Clock::now();
                tp.analyze(*v);
                auto d = Clock::now();
                if (pass == 0) {
                    totals.latency_ms += msBetween(a, b);
                    totals.ports_ms += msBetween(b, c);
                    totals.tp_ms += msBetween(c, d);
                } else {
                    totals.warm_ms += msBetween(a, d);
                }
            } catch (const std::exception &) {
                // The sweep records such variants as failed; the probe
                // only times the ones that characterize.
            }
        }
        if (pass == 0) {
            totals.hits = cache.hits();
            totals.misses = cache.misses();
        }
    }
    return totals;
}

int
cmdBuild(const Args &args)
{
    const std::string out_dir = args.get("out");
    const std::vector<uarch::UArch> arches = parseArches(args.get("arches"));
    const size_t workers = static_cast<size_t>(args.num("workers", 4));
    const bool trace = args.num("trace", 0) != 0;
    fatalIf(workers == 0, "pb: --workers must be >= 1");
    fatalIf(std::filesystem::exists(out_dir),
            "pb: --out must name a fresh directory");

    auto instrs = isa::buildDefaultDb();
    core::BatchOptions options;
    options.num_threads = workers;
    options.keep_results = false;

    core::CharacterizationReport report;
    std::shared_ptr<const db::DatabaseCatalog> built;
    double ingest_ms = 0.0, cpu_s = 0.0;

    auto t_sweep = Clock::now();
    if (!trace) {
        built = db::runCatalogSweep(*instrs, arches, options, nullptr,
                                    &report);
    } else {
        // runCatalogSweep's body with a timing sink around the
        // ingestor.
        double cpu0 = cpuSeconds();
        db::CatalogSweepIngestor ingestor;
        for (uarch::UArch arch : arches)
            ingestor.declareArch(arch);
        TimingSink sink(ingestor);
        options.sink = &sink;
        report = core::runBatchSweep(*instrs, arches, options);
        built = std::make_shared<db::DatabaseCatalog>(
            ingestor.takeShards(), 1);
        ingest_ms = sink.busyMs();
        cpu_s = cpuSeconds() - cpu0;
    }
    auto t_commit = Clock::now();
    db::saveCatalogDir(*built, out_dir);
    auto t_load = Clock::now();
    auto opened = db::openCatalog(out_dir, db::LoadMode::Mmap);
    auto t_publish = Clock::now();
    auto service = std::make_unique<server::QueryService>(
        opened, *instrs, server::QueryService::Options{});
    auto t_end = Clock::now();

    const double sweep_ms = msBetween(t_sweep, t_commit);
    Accuracy acc = catalogAccuracy(*opened, *instrs);
    Json out;
    out.num("tasks", report.numTasks())
        .num("failed", report.numFailed())
        .num("records", opened->numRecords())
        .num("shards", opened->shards().size())
        .str("content_hash", hashHex(opened->contentHash()))
        .num("workers", workers)
        .num("build_s", msBetween(t_sweep, t_end) / 1000.0)
        .num("sweep_ms", sweep_ms)
        .num("commit_ms", msBetween(t_commit, t_load))
        .num("load_ms", msBetween(t_load, t_publish))
        .num("publish_ms", msBetween(t_publish, t_end))
        .num("commit_bytes", static_cast<double>(directoryBytes(out_dir)))
        .num("acc_records", acc.records)
        .num("port_matches", acc.port_matches)
        .num("latency_pairs", acc.latency_pairs)
        .num("latency_matches", acc.latency_matches)
        .raw("port_misses", jsonList(acc.port_misses));
    if (trace) {
        out.num("ingest_ms", ingest_ms)
            .num("sweep_cpu_util",
                 cpu_s / (sweep_ms / 1000.0 * static_cast<double>(workers)));

        // Core/sim probe: uarches spread over a fixed thread count.
        const size_t probe_threads =
            static_cast<size_t>(args.num("probe-threads", 4));
        std::vector<ProbeTotals> per_arch(arches.size());
        std::atomic<size_t> next{0};
        std::vector<std::thread> pool;
        for (size_t t = 0; t < probe_threads; ++t)
            pool.emplace_back([&] {
                for (size_t a = next++; a < arches.size(); a = next++)
                    per_arch[a] = probeUArch(*instrs, arches[a]);
            });
        for (std::thread &th : pool)
            th.join();
        ProbeTotals sum;
        for (const ProbeTotals &p : per_arch) {
            sum.setup_ms += p.setup_ms;
            sum.latency_ms += p.latency_ms;
            sum.ports_ms += p.ports_ms;
            sum.tp_ms += p.tp_ms;
            sum.warm_ms += p.warm_ms;
            sum.hits += p.hits;
            sum.misses += p.misses;
            sum.variants += p.variants;
        }
        double cold_ms = sum.latency_ms + sum.ports_ms + sum.tp_ms;
        out.num("probe_variants", sum.variants)
            .num("core_setup_ms", sum.setup_ms)
            .num("core_latency_ms", sum.latency_ms)
            .num("core_port_usage_ms", sum.ports_ms)
            .num("core_throughput_ms", sum.tp_ms)
            .num("core_warm_ms", sum.warm_ms)
            .num("sim_hits", static_cast<double>(sum.hits))
            .num("sim_misses", static_cast<double>(sum.misses))
            .num("sim_us_per_miss",
                 sum.misses ? (cold_ms - sum.warm_ms) * 1000.0 /
                                  static_cast<double>(sum.misses)
                            : 0.0);
    }
    out.num("peak_rss_mb", peakRssMb());
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// ---------------------------------------------------------------- info

int
cmdInfo(const Args &args)
{
    fatalIf(args.positional.size() != 1, "pb info: expected DIR");
    auto instrs = isa::buildDefaultDb();
    auto catalog = db::openCatalog(args.positional[0]);

    std::vector<std::string> uarches;
    std::string names_by_uarch = "{";
    std::map<std::string, std::vector<std::string>> asm_uarches;
    std::map<std::string, std::string> asm_of;
    std::set<std::string> mnemonics, extensions;
    for (const db::ShardEntry &entry : catalog->shards()) {
        const std::string arch = uarch::uarchShortName(entry.arch);
        uarches.push_back(arch);
        std::vector<std::string> names;
        for (uint32_t row = 0; row < entry.db->numRecords(); ++row) {
            db::RecordView rec(*entry.db, row);
            const std::string name(rec.name());
            names.push_back(name);
            mnemonics.insert(std::string(rec.mnemonic()));
            extensions.insert(std::string(rec.extension()));
            const isa::InstrVariant *v = instrs->byName(name);
            if (v == nullptr || v->attrs().is_branch ||
                v->attrs().uses_divider)
                continue;
            auto it = asm_of.find(name);
            if (it == asm_of.end()) {
                // One instance per variant; kept only when the line
                // assembles back to the same variant.
                std::string line;
                try {
                    core::RegPool pool(core::RegPool::Zone::Analyzed);
                    line = core::makeIndependent(*v, pool).toAsm();
                    if (isa::assembleLine(*instrs, line).variant != v)
                        line.clear();
                } catch (const std::exception &) {
                    line.clear();
                }
                if (line.find_first_of("\t\n;#") != std::string::npos)
                    line.clear();
                it = asm_of.emplace(name, line).first;
            }
            if (!it->second.empty())
                asm_uarches[it->second].push_back(arch);
        }
        if (names_by_uarch.size() > 1)
            names_by_uarch += ", ";
        names_by_uarch += "\"" + arch + "\": " + jsonList(names);
    }
    names_by_uarch += "}";
    std::string pool = "[";
    for (const auto &[line, arches] : asm_uarches) {
        if (pool.size() > 1)
            pool += ", ";
        pool += "[\"" + server::jsonEscape(line) + "\", " +
                jsonList(arches) + "]";
    }
    pool += "]";
    Json out;
    out.raw("uarches", jsonList(uarches))
        .raw("names", names_by_uarch)
        .raw("mnemonics", jsonList({mnemonics.begin(), mnemonics.end()}))
        .raw("extensions",
             jsonList({extensions.begin(), extensions.end()}))
        .raw("asm_pool", pool);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// --------------------------------------------------------------- serve

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

/** Value of a bare counter series in a Prometheus exposition. */
double
exposedValue(const std::string &text, const std::string &series)
{
    size_t pos = 0;
    while ((pos = text.find(series, pos)) != std::string::npos) {
        bool line_start = pos == 0 || text[pos - 1] == '\n';
        size_t after = pos + series.size();
        if (line_start && after < text.size() && text[after] == ' ')
            return std::strtod(text.c_str() + after + 1, nullptr);
        pos = after;
    }
    return 0.0;
}

int
cmdServe(const Args &args)
{
    fatalIf(args.positional.size() != 1, "pb serve: expected DIR");
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    const std::string path = args.positional[0];
    auto instrs = isa::buildDefaultDb();

    auto t0 = Clock::now();
    auto catalog = db::openCatalog(path, db::LoadMode::Mmap);
    auto t1 = Clock::now();
    server::QueryService service(std::move(catalog), *instrs,
                                 serviceOptions(args));
    auto t2 = Clock::now();
    service.setReloader([path] {
        return db::openCatalog(path, db::LoadMode::Mmap);
    });

    server::HttpServer::Options options;
    options.port = 0;
    options.num_threads =
        static_cast<size_t>(args.num("pool-threads", 2));
    options.reactor_threads =
        static_cast<size_t>(args.num("reactor-threads", 1));
    fatalIf(options.num_threads == 0 || options.reactor_threads == 0,
            "pb serve: thread counts must be explicit (>= 1)");
    server::HttpServer http(service, options);
    http.start();
    auto t3 = Clock::now();
    Json ready;
    ready.num("port", http.port())
        .num("load_ms", msBetween(t0, t1))
        .num("publish_ms", msBetween(t1, t2))
        .num("listen_ms", msBetween(t2, t3))
        .num("pool_threads", http.numWorkers());
    std::printf("%s\n", ready.text().c_str());
    std::fflush(stdout);

    while (!g_stop && http.running())
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    http.drain(std::chrono::milliseconds(2000));

    const std::string exposition = service.registry().renderPrometheus();
    server::ResponseCache::Stats cache = service.cacheStats();
    server::ResponseCache::Stats memo = service.kernelMemoStats();
    server::PredictEngine::Stats engine = service.engineStats();
    Json out;
    out.num("cache_hits", static_cast<double>(cache.hits))
        .num("cache_misses", static_cast<double>(cache.misses))
        .num("memo_hits", static_cast<double>(memo.hits))
        .num("memo_misses", static_cast<double>(memo.misses))
        .num("engine_simulations", static_cast<double>(engine.simulations))
        .num("engine_coalesced", static_cast<double>(engine.coalesced))
        .num("engine_rejected", static_cast<double>(engine.rejected))
        .num("engine_workers", engine.workers)
        .num("fast_served",
             exposedValue(exposition, "uops_reactor_fast_served_total"))
        .num("dispatched",
             exposedValue(exposition, "uops_reactor_dispatched_total"))
        .num("peak_rss_mb", peakRssMb());
    std::printf("%s\n", out.text().c_str());
    std::fflush(stdout);
    return 0;
}

// ------------------------------------------------------------ requests

struct Request
{
    std::string cls;
    std::string method;
    std::string target;
    bool inm = false;
    bool sample = false;
    std::string body;
};

std::vector<Request>
readRequests(const std::string &file)
{
    std::ifstream in(file);
    fatalIf(!in, "pb: cannot open ", file);
    std::vector<Request> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::vector<std::string> f = split(line, '\t');
        fatalIf(f.size() < 5, "pb: malformed request line: ", line);
        Request r;
        r.cls = f[0];
        r.method = f[1];
        r.target = f[2];
        r.inm = f[3] == "1";
        r.sample = f[4] == "1";
        if (f.size() > 5)
            r.body = f[5];
        out.push_back(std::move(r));
    }
    fatalIf(out.empty(), "pb: empty request file ", file);
    return out;
}

std::string
rawRequest(const Request &r, const std::string &etag)
{
    std::string out = r.method + " " + r.target +
                      " HTTP/1.1\r\nHost: localhost\r\n";
    if (r.inm)
        out += "If-None-Match: \"" + etag + "\"\r\n";
    if (r.method == "POST")
        out += "Content-Length: " + std::to_string(r.body.size()) +
               "\r\n";
    out += "\r\n";
    out += r.body;
    return out;
}

int
expectedStatus(const Request &r)
{
    return r.inm ? 304 : 200;
}

// ---------------------------------------------------------------- load

/** One blocking keep-alive client connection with response framing. */
class Client
{
  public:
    explicit Client(uint16_t port) : port_(port) {}
    ~Client() { close(); }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool
    connect()
    {
        close();
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return false;
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        timeval tv{10, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port_);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            close();
            return false;
        }
        buffer_.clear();
        return true;
    }
    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }
    bool connected() const { return fd_ >= 0; }
    bool
    send(const std::string &bytes)
    {
        size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::send(fd_, bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    struct Response
    {
        int status = 0;
        bool close = false;
        std::string etag;
        size_t bytes = 0;
    };

    /** Read one whole response; @p raw gets its bytes when non-null. */
    std::optional<Response>
    receive(std::string *raw)
    {
        size_t head_end;
        while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos)
            if (!fill())
                return std::nullopt;
        head_end += 4;
        Response r;
        std::string_view head(buffer_.data(), head_end);
        if (head.size() < 12 || !startsWith(head, "HTTP/1.1 "))
            return std::nullopt;
        r.status = std::atoi(buffer_.c_str() + 9);
        size_t length = 0;
        for (std::string_view line : splitLines(head)) {
            std::string lower = toLower(std::string(line));
            if (startsWith(lower, "content-length:"))
                length = std::strtoul(lower.c_str() + 15, nullptr, 10);
            else if (startsWith(lower, "connection:"))
                r.close = lower.find("close") != std::string::npos;
            else if (startsWith(lower, "etag:")) {
                std::string value(line.substr(5));
                value = trim(value);
                if (value.size() >= 2 && value.front() == '"')
                    value = value.substr(1, value.size() - 2);
                r.etag = value;
            }
        }
        while (buffer_.size() < head_end + length)
            if (!fill())
                return std::nullopt;
        r.bytes = head_end + length;
        if (raw != nullptr)
            raw->assign(buffer_, 0, r.bytes);
        buffer_.erase(0, r.bytes);
        if (r.close)
            close();
        return r;
    }

  private:
    static std::vector<std::string_view>
    splitLines(std::string_view head)
    {
        std::vector<std::string_view> lines;
        size_t pos = 0;
        while (pos < head.size()) {
            size_t end = head.find("\r\n", pos);
            if (end == std::string_view::npos || end == pos)
                break;
            lines.push_back(head.substr(pos, end - pos));
            pos = end + 2;
        }
        return lines;
    }
    bool
    fill()
    {
        char chunk[65536];
        ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n <= 0)
            return false;
        buffer_.append(chunk, static_cast<size_t>(n));
        return true;
    }

    uint16_t port_;
    int fd_ = -1;
    std::string buffer_;
};

/** Everything one load thread observed. */
struct ThreadLog
{
    std::map<std::string, std::vector<double>> latency_ms;  ///< by class
    std::map<std::string, uint64_t> failed;                 ///< by class
    std::vector<double> late_ms;
    uint64_t attempted = 0;
    uint64_t completed = 0;
    uint64_t bytes = 0;
    double last_done_s = 0.0;
    std::map<size_t, std::string> samples;  ///< request index -> bytes
};

std::string
fetchEtag(uint16_t port)
{
    Client client(port);
    fatalIf(!client.connect(), "pb load: cannot connect to port ", port);
    fatalIf(!client.send("GET /uarchs HTTP/1.1\r\nHost: localhost\r\n\r\n"),
            "pb load: send failed");
    auto r = client.receive(nullptr);
    fatalIf(!r || r->status != 200 || r->etag.empty(),
            "pb load: /uarchs gave no ETag");
    return r->etag;
}

int
cmdLoad(const Args &args)
{
    const uint16_t port = static_cast<uint16_t>(args.num("port", 0));
    const std::vector<Request> requests = readRequests(args.get("requests"));
    const double seconds = args.real("seconds", 10.0);
    const double warmup = args.real("warmup", 0.0);
    const size_t threads = static_cast<size_t>(args.num("threads", 2));
    const size_t depth = static_cast<size_t>(args.num("depth", 1));
    const double think_ms = args.real("think-ms", 0.0);
    const long reloads_after = args.num("reloads-after", 0);
    fatalIf(threads == 0 || depth == 0, "pb load: counts must be >= 1");

    const std::string etag = fetchEtag(port);
    std::vector<std::string> raw(requests.size());
    for (size_t i = 0; i < requests.size(); ++i)
        raw[i] = rawRequest(requests[i], etag);

    std::vector<ThreadLog> logs(threads);
    std::mutex sample_mutex;
    std::vector<uint8_t> sampled(requests.size(), 0);
    auto want_sample = [&](size_t i) {
        if (!requests[i].sample)
            return false;
        std::lock_guard<std::mutex> lock(sample_mutex);
        if (sampled[i])
            return false;
        sampled[i] = 1;
        return true;
    };

    const auto start = Clock::now() + std::chrono::milliseconds(20);
    const auto measure_from =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(warmup));
    const auto stop_at =
        measure_from + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    auto seconds_since = [&](Clock::time_point t) {
        return std::chrono::duration<double>(t - measure_from).count();
    };

    auto record = [&](ThreadLog &log, size_t i,
                      const std::optional<Client::Response> &r,
                      double latency_ms, bool measured) {
        if (!measured)
            return;
        const Request &req = requests[i];
        ++log.attempted;
        if (!r || r->status != expectedStatus(req)) {
            ++log.failed[req.cls];
            return;
        }
        ++log.completed;
        log.bytes += r->bytes;
        log.latency_ms[req.cls].push_back(latency_ms);
    };

    // Each thread is one user on its own keep-alive connection: send a
    // batch, read every answer, think, repeat. The request list is
    // shared, so every request goes out once per pass over it.
    std::atomic<size_t> next{0};
    const auto think = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(think_ms));
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            ThreadLog &log = logs[t];
            Client client(port);
            std::this_thread::sleep_until(start);
            auto intended = Clock::now();
            while (true) {
                if (!client.connected() && !client.connect()) {
                    ++log.attempted;
                    ++log.failed["connect"];
                    break;
                }
                auto sent = Clock::now();
                if (sent >= stop_at)
                    break;
                bool measured = sent >= measure_from;
                if (measured)
                    log.late_ms.push_back(msBetween(intended, sent));
                std::string batch;
                std::vector<size_t> ids;
                for (size_t k = 0; k < depth; ++k) {
                    ids.push_back(next++ % requests.size());
                    batch += raw[ids.back()];
                }
                size_t answered = 0;
                if (client.send(batch)) {
                    for (; answered < ids.size(); ++answered) {
                        size_t i = ids[answered];
                        std::string bytes;
                        bool keep = want_sample(i);
                        auto r = client.receive(keep ? &bytes : nullptr);
                        if (!r)
                            break;
                        auto done = Clock::now();
                        record(log, i, r, msBetween(sent, done), measured);
                        if (keep)
                            log.samples[i] = std::move(bytes);
                        log.last_done_s = seconds_since(done);
                        // A server-side close ends the batch; whatever
                        // follows was never answered.
                        if (!client.connected()) {
                            ++answered;
                            break;
                        }
                    }
                }
                for (size_t k = answered; k < ids.size(); ++k)
                    record(log, ids[k], std::nullopt, 0, measured);
                if (answered < ids.size())
                    client.close();
                intended = Clock::now() + think;
                std::this_thread::sleep_until(intended);
            }
        });
    for (std::thread &th : pool)
        th.join();

    // Idle reloads after the traffic (serve_hot's list carries none).
    std::vector<double> idle_reload_ms;
    if (reloads_after > 0) {
        Client client(port);
        for (long k = 0; k < reloads_after; ++k) {
            if (!client.connected() && !client.connect())
                break;
            auto t0 = Clock::now();
            std::optional<Client::Response> r;
            if (client.send("POST /reload HTTP/1.1\r\nHost: localhost\r\n"
                            "Content-Length: 0\r\n\r\n"))
                r = client.receive(nullptr);
            if (r && r->status == 200)
                idle_reload_ms.push_back(msBetween(t0, Clock::now()));
            else
                client.close();
        }
    }

    // Merge the thread logs.
    ThreadLog all;
    for (ThreadLog &log : logs) {
        for (auto &[cls, v] : log.latency_ms)
            all.latency_ms[cls].insert(all.latency_ms[cls].end(),
                                       v.begin(), v.end());
        for (auto &[cls, n] : log.failed)
            all.failed[cls] += n;
        all.late_ms.insert(all.late_ms.end(), log.late_ms.begin(),
                           log.late_ms.end());
        all.attempted += log.attempted;
        all.completed += log.completed;
        all.bytes += log.bytes;
        all.last_done_s = std::max(all.last_done_s, log.last_done_s);
        for (auto &[i, bytes] : log.samples)
            all.samples[i] = std::move(bytes);

    }
    if (reloads_after > 0) {
        all.attempted += static_cast<uint64_t>(reloads_after);
        all.completed += idle_reload_ms.size();
        all.failed["reload"] +=
            static_cast<uint64_t>(reloads_after) - idle_reload_ms.size();
        auto &v = all.latency_ms["reload"];
        v.insert(v.end(), idle_reload_ms.begin(), idle_reload_ms.end());
    }

    if (auto it = args.options.find("samples-out");
        it != args.options.end()) {
        std::ofstream out(it->second, std::ios::binary);
        for (const auto &[i, bytes] : all.samples)
            out << i << "\n" << bytes.size() << "\n" << bytes;
        fatalIf(!out, "pb load: cannot write ", it->second);
    }

    std::vector<double> every;
    std::string classes = "{";
    for (auto &[cls, v] : all.latency_ms) {
        every.insert(every.end(), v.begin(), v.end());
        Json c;
        c.num("count", v.size())
            .num("failed", static_cast<double>(all.failed[cls]))
            .num("p50_ms", median(v))
            .num("p90_ms", quantile(v, 0.90))
            .num("p95_ms", quantile(v, 0.95))
            .num("p99_ms", quantile(v, 0.99));
        if (classes.size() > 1)
            classes += ", ";
        classes += "\"" + cls + "\": " + c.text();
    }
    for (auto &[cls, n] : all.failed)
        if (!all.latency_ms.count(cls)) {
            Json c;
            c.num("count", 0).num("failed", static_cast<double>(n));
            if (classes.size() > 1)
                classes += ", ";
            classes += "\"" + cls + "\": " + c.text();
        }
    classes += "}";
    const double window = std::max(seconds, all.last_done_s);
    Json out;
    out.num("threads", threads)
        .num("connections", threads)
        .num("depth", depth)
        .num("think_ms", think_ms)
        .num("attempted", static_cast<double>(all.attempted))
        .num("completed", static_cast<double>(all.completed))
        .num("failed", static_cast<double>(all.attempted - all.completed))
        .num("window_s", window)
        .num("rps", static_cast<double>(all.completed) / window)
        .num("bytes", static_cast<double>(all.bytes))
        .num("p50_ms", median(every))
        .num("p90_ms", quantile(every, 0.90))
        .num("p95_ms", quantile(every, 0.95))
        .num("p99_ms", quantile(every, 0.99))
        .num("late_p99_ms", quantile(all.late_ms, 0.99))
        .num("samples", all.samples.size())
        .raw("classes", classes);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// -------------------------------------------------- verify and replay

server::HttpRequest
toHttpRequest(const std::string &raw)
{
    size_t head_end = raw.find("\r\n\r\n");
    fatalIf(head_end == std::string::npos, "pb: bad raw request");
    server::HttpRequest request =
        server::parseRequestHead(std::string_view(raw).substr(0, head_end));
    request.body = raw.substr(head_end + 4);
    return request;
}

/** Drop the X-Request-Id and X-Cache header lines. */
std::string
comparable(const std::string &response)
{
    std::string out;
    size_t pos = 0;
    size_t head_end = response.find("\r\n\r\n");
    while (pos < response.size()) {
        size_t end = response.find("\r\n", pos);
        if (end == std::string::npos || pos >= head_end) {
            out.append(response, pos, std::string::npos);
            break;
        }
        std::string lower = toLower(response.substr(pos, end - pos));
        if (!startsWith(lower, "x-request-id:") &&
            !startsWith(lower, "x-cache:"))
            out.append(response, pos, end + 2 - pos);
        pos = end + 2;
    }
    return out;
}

int
cmdVerify(const Args &args)
{
    fatalIf(args.positional.size() != 1, "pb verify: expected DIR");
    const std::vector<Request> requests = readRequests(args.get("requests"));
    auto instrs = isa::buildDefaultDb();
    server::QueryService service(db::openCatalog(args.positional[0]),
                                 *instrs, serviceOptions(args));
    server::HttpRequest probe;
    probe.method = "GET";
    probe.target = probe.path = "/uarchs";
    const std::string etag = service.handle(probe).etag;

    std::ifstream in(args.get("samples"), std::ios::binary);
    fatalIf(!in, "pb verify: cannot open samples");
    size_t compared = 0, mismatched = 0;
    std::vector<std::string> examples;
    size_t index, length;
    while (in >> index >> length) {
        in.get();
        std::string wire(length, '\0');
        in.read(wire.data(), static_cast<std::streamsize>(length));
        fatalIf(!in || index >= requests.size(), "pb verify: bad samples");
        const Request &req = requests[index];
        server::HttpResponse direct =
            service.handle(toHttpRequest(rawRequest(req, etag)));
        bool keep_alive =
            toLower(wire.substr(0, wire.find("\r\n\r\n")))
                .find("connection: close") == std::string::npos;
        ++compared;
        if (comparable(wire) !=
            comparable(server::serializeResponse(direct, keep_alive))) {
            ++mismatched;
            if (examples.size() < 5)
                examples.push_back(req.cls + " " + req.target);
        }
    }
    Json out;
    out.num("compared", compared)
        .num("mismatched", mismatched)
        .raw("examples", jsonList(examples));
    std::printf("%s\n", out.text().c_str());
    return 0;
}

/** The /search parameters the workload uses, as a db::Query (the
 *  same decoding QueryService applies). */
db::Query
searchQuery(const server::HttpRequest &request)
{
    db::Query query;
    if (auto v = request.param("uarch"))
        query.arch = uarch::parseUArch(*v);
    query.mnemonic = request.param("mnemonic");
    query.extension = request.param("extension");
    if (auto v = request.param("uses"))
        query.uses_ports = uarch::parsePortMask(*v);
    if (auto v = request.param("uses_only"))
        query.ports_subset = uarch::parsePortMask(*v);
    if (auto v = request.param("tp_max"))
        query.tp_max = db::tpBoundMax(parseDouble(*v).value());
    if (auto v = request.param("lat_max"))
        query.lat_max = static_cast<int>(parseInt(*v).value());
    if (auto v = request.param("uops_max"))
        query.uops_max = static_cast<int>(parseInt(*v).value());
    if (auto v = request.param("limit"))
        query.limit = static_cast<size_t>(parseInt(*v).value());
    return query;
}

int
cmdReplay(const Args &args)
{
    fatalIf(args.positional.size() != 1, "pb replay: expected DIR");
    const std::string path = args.positional[0];
    const std::vector<Request> requests = readRequests(args.get("requests"));
    const long passes = args.num("passes", 1);
    auto instrs = isa::buildDefaultDb();
    auto catalog = db::openCatalog(path);
    server::QueryService service(catalog, *instrs, serviceOptions(args));
    service.setReloader([path] { return db::openCatalog(path); });
    server::HttpRequest probe;
    probe.method = "GET";
    probe.target = probe.path = "/uarchs";
    const std::string etag = service.handle(probe).etag;

    // handle() per class, on the last pass (earlier passes warm the
    // caches the way the wire run's first cycle does).
    std::map<std::string, std::vector<double>> handle_us;
    for (long pass = 0; pass < passes; ++pass) {
        for (const Request &req : requests) {
            server::HttpRequest request =
                toHttpRequest(rawRequest(req, etag));
            auto t0 = Clock::now();
            server::HttpResponse response = service.handle(request);
            double us = usBetween(t0, Clock::now());
            fatalIf(response.status != expectedStatus(req),
                    "pb replay: ", req.target, " answered ",
                    response.status);
            if (pass + 1 == passes)
                handle_us[req.cls].push_back(us);
        }
    }

    // serve_hot's idle reloads follow its traffic.
    server::HttpRequest reload;
    reload.method = "POST";
    reload.target = reload.path = "/reload";
    for (long k = 0; k < args.num("reloads-after", 0); ++k) {
        auto t0 = Clock::now();
        server::HttpResponse response = service.handle(reload);
        handle_us["reload"].push_back(usBetween(t0, Clock::now()));
        fatalIf(response.status != 200, "pb replay: /reload answered ",
                response.status);
    }

    // db layer on the /search predicates; sim layer on the /predict
    // blocks (each distinct block once, no memo).
    std::vector<double> scan_us, rows_per_hit;
    std::map<uarch::UArch, std::unique_ptr<sim::BlockPredictor>>
        predictors;
    std::set<std::string> seen_blocks;
    std::vector<double> predict_us;
    for (const Request &req : requests) {
        server::HttpRequest request = toHttpRequest(rawRequest(req, etag));
        if (request.path == "/search") {
            db::Query query = searchQuery(request);
            auto t0 = Clock::now();
            std::vector<db::RecordView> hits = catalog->search(query);
            scan_us.push_back(usBetween(t0, Clock::now()));
            size_t considered = 0, matched = 0;
            db::PredicateSet preds = db::predicatesFromQuery(query);
            for (const db::ShardEntry &entry : catalog->shards()) {
                if (query.arch && *query.arch != entry.arch)
                    continue;
                db::ScanStats stats;
                db::ScanExecutor(*entry.db).run(preds, query.limit,
                                                &stats);
                considered += stats.rows_considered;
                matched += stats.rows_matched;
            }
            if (matched > 0)
                rows_per_hit.push_back(static_cast<double>(considered) /
                                       static_cast<double>(matched));
        } else if (request.path == "/predict") {
            std::string listing = request.method == "POST"
                                      ? request.body
                                      : request.param("asm").value_or("");
            uarch::UArch arch =
                uarch::parseUArch(request.param("uarch").value_or(""));
            if (!seen_blocks
                     .insert(uarch::uarchShortName(arch) + "|" + listing)
                     .second)
                continue;
            auto &predictor = predictors[arch];
            if (!predictor)
                predictor =
                    std::make_unique<sim::BlockPredictor>(*instrs, arch);
            std::replace(listing.begin(), listing.end(), ';', '\n');
            isa::Kernel kernel = isa::assemble(*instrs, listing);
            auto t0 = Clock::now();
            predictor->predict(kernel);
            predict_us.push_back(usBetween(t0, Clock::now()));
        }
    }

    // swapCatalog: what a publish costs on a live service.
    std::vector<double> swap_ms;
    for (int k = 0; k < 5; ++k) {
        auto t0 = Clock::now();
        service.swapCatalog(catalog);
        swap_ms.push_back(msBetween(t0, Clock::now()));
    }

    std::string classes = "{";
    for (auto &[cls, v] : handle_us) {
        if (classes.size() > 1)
            classes += ", ";
        Json c;
        c.num("count", v.size()).num("p50_us", median(v));
        classes += "\"" + cls + "\": " + c.text();
    }
    classes += "}";
    Json out;
    out.raw("handle", classes)
        .num("searches", scan_us.size())
        .num("scan_us", median(scan_us))
        .num("rows_per_hit", median(rows_per_hit))
        .num("blocks", predict_us.size())
        .num("predict_us", median(predict_us))
        .num("swap_ms", median(swap_ms));
    std::printf("%s\n", out.text().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    if (argc < 2) {
        std::fprintf(stderr, "usage: pb fingerprint|build|info|serve|"
                             "load|verify|replay [options]\n");
        return 2;
    }
    const std::string command = argv[1];
    const Args args = parseArgs(argc, argv);
    if (command == "fingerprint")
        return cmdFingerprint();
    if (command == "build")
        return cmdBuild(args);
    if (command == "info")
        return cmdInfo(args);
    if (command == "serve")
        return cmdServe(args);
    if (command == "load")
        return cmdLoad(args);
    if (command == "verify")
        return cmdVerify(args);
    if (command == "replay")
        return cmdReplay(args);
    std::fprintf(stderr, "pb: unknown command %s\n", command.c_str());
    return 2;
} catch (const std::exception &e) {
    std::fprintf(stderr, "pb: error: %s\n", e.what());
    return 1;
}
