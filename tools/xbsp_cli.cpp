/**
 * @file
 * `xbsp` — command-line driver for the library.
 *
 *   xbsp list                         workloads and descriptions
 *   xbsp describe  --workload W --target 32o
 *                                     dump the compiled binary
 *   xbsp bbv       --workload W --target 32u --interval 250000
 *                  --out prefix       collect BBVs -> prefix.bb
 *                                     (+ prefix.lens VLI lengths)
 *   xbsp simpoints --bb file [--lengths file] --maxk 10
 *                  --out prefix       cluster a .bb file (stock
 *                                     SimPoint replacement) ->
 *                                     prefix.simpoints/.weights/.labels
 *   xbsp study     --workload W [--stats] [--regions prefix]
 *                                     full cross-binary pipeline; with
 *                                     --regions, write per-binary
 *                                     region-spec files
 *   xbsp graph     [W...] [--dot] [--run] [--out file]
 *                                     dump the stage task graph the
 *                                     scheduler would execute for the
 *                                     workloads (default --workload)
 *                                     as JSON (or DOT); with --run,
 *                                     execute it first so every node
 *                                     carries its final status
 *   xbsp cache stats|gc|clear         inspect / collect / wipe the
 *                                     artifact cache (--cache-dir or
 *                                     XBSP_CACHE_DIR)
 *   xbsp top       --metrics-socket S [--interval-ms N] [--count N]
 *                  [--plain]          live view of a running study:
 *                                     scheduler utilization, per-stage
 *                                     node counts, store hit rate,
 *                                     E-step throughput, progress ETA
 *                                     (rates between two of its own
 *                                     scrapes)
 *                                     (scrapes the exposition endpoint
 *                                     another xbsp process serves via
 *                                     --metrics-socket / XBSP_METRICS)
 *   xbsp manifest  [file] [--json]    pretty-print a provenance
 *                                     manifest.json written by
 *                                     --manifest-out / --stats-out
 *   xbsp serve     --serve-socket S [--serve-tcp P] --cache-dir D
 *                                     long-lived daemon: accepts
 *                                     workers (`xbsp work`) and suite
 *                                     requests (`xbsp submit`) on one
 *                                     listener; identical in-flight
 *                                     stages single-flight and the
 *                                     artifact store stays warm
 *                                     across requests
 *   xbsp work      --connect A [--worker-name N]
 *                                     remote worker: executes stage
 *                                     tasks for a daemon, publishing
 *                                     artifacts through the shared
 *                                     cache directory
 *   xbsp submit    [figures...] --connect A [--workloads W,...]
 *                  [--local]          request figure reports from a
 *                                     daemon (default figure3); with
 *                                     --local, render in-process
 *                                     through the identical code path
 *                                     (the byte-compare baseline).
 *                                     Figures: table1, figure1 ..
 *                                     figure5, table2, table3,
 *                                     mappability — the paper's
 *                                     whole evaluation
 *   xbsp cores     [--workloads W,...] [--scale S]
 *                                     cross-microarchitecture
 *                                     experiment: the same binaries
 *                                     studied under every timing
 *                                     core (inorder and decoupled),
 *                                     reporting per-binary CPI error
 *                                     and per-pair speedup error
 *                                     under each
 *
 * Every command that runs pipeline stages honours --cache-dir (or the
 * XBSP_CACHE_DIR environment variable) to memoize compile, profile,
 * clustering, VLI and detailed-simulation artifacts on disk, and
 * --no-cache to force full recomputation.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "binary/binary.hh"
#include "core/regionspec.hh"
#include "cpu/core.hh"
#include "dist/client.hh"
#include "dist/server.hh"
#include "dist/stagerun.hh"
#include "dist/worker.hh"
#include "harness/experiments.hh"
#include "obs/live/endpoint.hh"
#include "obs/live/exposition.hh"
#include "obs/setup.hh"
#include "pipeline/taskgraph.hh"
#include "profile/profile.hh"
#include "sim/report.hh"
#include "sim/study.hh"
#include "simpoint/io.hh"
#include "store/store.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/socket.hh"
#include "util/threadpool.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

namespace
{

bin::Target
parseTarget(const std::string& name)
{
    for (const auto& target : compile::standardTargets()) {
        if (bin::targetName(target) == name)
            return target;
    }
    fatal("unknown target '{}' (expected 32u/32o/64u/64o)", name);
}

/** --core as a kind: a model knob, so an unknown name is fatal. */
cpu::CoreKind
coreOption(const Options& options)
{
    const std::string name = options.getString("core");
    const std::optional<cpu::CoreKind> kind = cpu::parseCoreKind(name);
    if (!kind)
        fatal("unknown --core '{}' (want inorder|decoupled)", name);
    return *kind;
}

/** --maxk as SimPoint takes it: 0 or a count past u32 is fatal. */
u32
maxKOption(const Options& options)
{
    const u64 maxK = options.getUint("maxk");
    if (maxK == 0 || maxK > std::numeric_limits<u32>::max())
        fatal("--maxk must be between 1 and {}, got {}",
              std::numeric_limits<u32>::max(), maxK);
    return static_cast<u32>(maxK);
}

int
cmdList()
{
    for (const auto& info : workloads::suite())
        std::printf("%-10s %s\n", info.name.c_str(),
                    info.description.c_str());
    return 0;
}

int
cmdDescribe(const Options& options)
{
    const bin::Binary binary = compile::compileProgram(
        workloads::makeWorkload(options.getString("workload"),
                                options.getDouble("scale")),
        parseTarget(options.getString("target")));
    std::cout << bin::describe(binary);
    return 0;
}

int
cmdBbv(const Options& options)
{
    const std::string prefix = options.getString("out");
    if (prefix.empty())
        fatal("bbv requires --out <prefix>");
    const bin::Binary binary = compile::compileProgram(
        workloads::makeWorkload(options.getString("workload"),
                                options.getDouble("scale")),
        parseTarget(options.getString("target")));
    const prof::ProfilePass pass = prof::runProfilePass(
        binary, options.getUint("interval"));

    std::ofstream bb(prefix + ".bb");
    sp::writeBbvFile(bb, pass.fliIntervals);
    std::ofstream lens(prefix + ".lens");
    sp::writeLengthsFile(lens, pass.fliIntervals);
    inform("wrote {} intervals to {}.bb / {}.lens",
           pass.fliIntervals.size(), prefix, prefix);
    return 0;
}

int
cmdSimpoints(const Options& options)
{
    const std::string bbPath = options.getString("bb");
    if (bbPath.empty())
        fatal("simpoints requires --bb <file>");
    const std::string prefix = options.getString("out");
    if (prefix.empty())
        fatal("simpoints requires --out <prefix>");
    std::ifstream bb(bbPath);
    if (!bb)
        fatal("cannot open '{}'", bbPath);
    sp::FrequencyVectorSet fvs = sp::readBbvFile(bb);
    if (const std::string lens = options.getString("lengths");
        !lens.empty()) {
        std::ifstream ls(lens);
        if (!ls)
            fatal("cannot open '{}'", lens);
        sp::readLengthsFile(ls, fvs);
    }

    sp::SimPointOptions spOptions;
    spOptions.maxK = maxKOption(options);
    spOptions.seed = options.getUint("seed");
    const sp::SimPointResult result =
        sp::pickSimulationPoints(fvs, spOptions);

    std::ofstream sims(prefix + ".simpoints");
    sp::writeSimpointsFile(sims, result);
    std::ofstream weights(prefix + ".weights");
    sp::writeWeightsFile(weights, result);
    std::ofstream labels(prefix + ".labels");
    sp::writeLabelsFile(labels, result);
    inform("{} intervals -> {} phases; wrote {}.simpoints/.weights/"
           ".labels", fvs.size(), result.phases.size(), prefix);
    return 0;
}

int
cmdStudy(const Options& options)
{
    sim::StudyConfig config = harness::defaultStudyConfig();
    config.intervalTarget = options.getUint("interval");
    config.simpoint.maxK = maxKOption(options);
    config.simpoint.seed = options.getUint("seed");
    config.core = cpu::coreConfigFor(coreOption(options));
    const sim::CrossBinaryStudy study = sim::CrossBinaryStudy::run(
        workloads::makeWorkload(options.getString("workload"),
                                options.getDouble("scale")),
        config);

    if (options.getBool("stats")) {
        sim::dumpStudyStats(std::cout, study);
    } else {
        std::printf("%s: %zu mappable points, %zu VLI intervals, "
                    "%zu phases\n", study.programName().c_str(),
                    study.mappable().points.size(),
                    study.partition().intervalCount(),
                    study.vliClustering().phases.size());
        for (const auto& bs : study.perBinary()) {
            std::printf("  %-4s true CPI %7.3f  fli err %6.2f%%  "
                        "vli err %6.2f%%\n",
                        bin::targetName(bs.target).c_str(),
                        bs.vliEstimate.trueCpi,
                        bs.fliEstimate.cpiError * 100.0,
                        bs.vliEstimate.cpiError * 100.0);
        }
    }

    if (const std::string prefix = options.getString("regions");
        !prefix.empty()) {
        for (std::size_t b = 0; b < study.perBinary().size(); ++b) {
            const auto& bs = study.perBinary()[b];
            std::vector<double> weights;
            for (const auto& phase : bs.vliEstimate.phases)
                weights.push_back(phase.weight);
            const auto specs = core::buildRegionSpecs(
                study.mappable(), study.partition(),
                study.vliClustering(), b, weights);
            const std::string path =
                prefix + "." + bin::targetName(bs.target) + ".regions";
            std::ofstream os(path);
            core::writeRegionSpecs(os, specs);
            inform("wrote {}", path);
        }
    }
    return 0;
}

int
cmdGraph(const Options& options)
{
    harness::ExperimentConfig config;
    config.workScale = options.getDouble("scale");
    config.study = harness::defaultStudyConfig();
    config.study.intervalTarget = options.getUint("interval");
    config.study.simpoint.maxK = maxKOption(options);
    config.study.simpoint.seed = options.getUint("seed");
    config.study.core = cpu::coreConfigFor(coreOption(options));

    // Workloads come as positionals after the command; default to
    // the --workload option like the other single-study commands.
    std::vector<std::string> names(options.positional().begin() + 1,
                                   options.positional().end());
    if (names.empty())
        names.push_back(options.getString("workload"));

    harness::SuiteGraph suite;
    harness::buildSuiteGraph(suite, config, names);
    if (options.getBool("run"))
        suite.graph.run(globalPool());

    std::ofstream file;
    std::ostream* os = &std::cout;
    if (const std::string path = options.getString("out");
        !path.empty()) {
        file.open(path);
        if (!file)
            fatal("cannot write '{}'", path);
        os = &file;
    }
    if (options.getBool("dot")) {
        suite.graph.writeDot(*os);
    } else {
        JsonWriter w(*os);
        suite.graph.writeJson(w);
        *os << '\n';
    }
    return 0;
}

int
cmdCache(const Options& options)
{
    store::ArtifactStore& store = store::ArtifactStore::global();
    if (store.directory().empty())
        fatal("cache commands need --cache-dir or XBSP_CACHE_DIR");
    if (options.positional().size() < 2)
        fatal("usage: xbsp cache stats|gc|clear");
    const std::string& action = options.positional()[1];

    if (action == "stats") {
        const store::CacheScan scan = store.scan();
        if (options.getBool("json")) {
            JsonWriter w(std::cout);
            w.beginObject();
            w.member("dir", store.directory());
            w.member("entries", scan.entries);
            w.member("bytes", scan.bytes);
            w.member("tempFiles", scan.tempFiles);
            w.endObject();
            std::cout << '\n';
            return 0;
        }
        std::printf("cache %s: %llu entries, %llu bytes"
                    " (%.1f MiB), %llu stray temp files\n",
                    store.directory().c_str(),
                    static_cast<unsigned long long>(scan.entries),
                    static_cast<unsigned long long>(scan.bytes),
                    static_cast<double>(scan.bytes) / (1024.0 * 1024.0),
                    static_cast<unsigned long long>(scan.tempFiles));
        return 0;
    }
    if (action == "gc") {
        const u64 budget =
            options.getUint("budget-mb") * 1024ull * 1024ull;
        const store::GcResult result = store.gc(budget);
        std::printf("cache gc: kept %llu entries (%llu bytes), "
                    "removed %llu entries (%llu bytes)\n",
                    static_cast<unsigned long long>(result.keptEntries),
                    static_cast<unsigned long long>(result.keptBytes),
                    static_cast<unsigned long long>(
                        result.removedEntries),
                    static_cast<unsigned long long>(
                        result.removedBytes));
        return 0;
    }
    if (action == "clear") {
        const u64 removed = store.clear();
        std::printf("cache clear: removed %llu files\n",
                    static_cast<unsigned long long>(removed));
        return 0;
    }
    fatal("unknown cache action '{}' (expected stats, gc or clear)",
          action);
}

/** Gauge/counter by exposition series name; 0 when absent. */
double
seriesValue(const std::map<std::string, double>& series,
            const std::string& name)
{
    const auto it = series.find(name);
    return it == series.end() ? 0.0 : it->second;
}

/**
 * Per-second growth of counter `name` from the previous frame's
 * scrape to this one, over `windowSeconds` of the viewer's own clock.
 * The endpoint serves no rates: they would cover the window since
 * whichever client scraped last.
 */
double
seriesRate(const std::map<std::string, double>& series,
           const std::map<std::string, double>& previous,
           const std::string& name, double windowSeconds)
{
    const double delta =
        seriesValue(series, name) - seriesValue(previous, name);
    return windowSeconds > 0.0 ? std::max(0.0, delta) / windowSeconds
                               : 0.0;
}

/** Series-name prefix of the scheduler.stage.<stage>.<what> tallies. */
const std::string stagePrefix = "xbsp_scheduler_stage_";

/** The stages with a scheduler.stage.<stage>.started tally. */
std::vector<std::string>
schedulerStages(const std::map<std::string, double>& series)
{
    const std::string suffix = "_started_total";
    std::vector<std::string> stages;
    for (const auto& [name, value] : series) {
        if (name.size() <= stagePrefix.size() + suffix.size() ||
            name.compare(0, stagePrefix.size(), stagePrefix) != 0 ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        stages.push_back(name.substr(
            stagePrefix.size(),
            name.size() - stagePrefix.size() - suffix.size()));
    }
    return stages;
}

/** Nodes of `stage` started but not yet settled. */
double
runningNodes(const std::map<std::string, double>& series,
             const std::string& stage)
{
    const std::string base = stagePrefix + stage;
    return seriesValue(series, base + "_started_total") -
           seriesValue(series, base + "_settled_total");
}

/**
 * Workers busy at one scrape: the running nodes of every stage,
 * capped at the pool size (remote and cache-resolved nodes count as
 * running but hold no pool worker).
 */
double
busyWorkers(const std::map<std::string, double>& series, double workers)
{
    double running = 0.0;
    for (const std::string& stage : schedulerStages(series))
        running += runningNodes(series, stage);
    return std::clamp(running, 0.0, workers);
}

/** `value` printed with `fmt`, or "n/a" when there is none. */
std::string
orNa(const char* fmt, std::optional<double> value)
{
    if (!value)
        return "n/a";
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, *value);
    return buf;
}

/**
 * One rendered frame of the live view.  `previous` is the prior
 * frame's scrape, taken `windowSeconds` earlier; nullptr on the first
 * frame, which has no window and prints its rates as n/a.
 */
std::string
renderTopFrame(const std::map<std::string, double>& series,
               const std::map<std::string, double>* previous,
               double windowSeconds, u64 frame)
{
    std::string out;
    char line[256];
    auto add = [&out, &line] { out += line; };

    const double workers =
        std::max(1.0, seriesValue(series, "xbsp_pool_workers"));
    const double done = seriesValue(series, "xbsp_progress_done");
    const double total = seriesValue(series, "xbsp_progress_steps");
    const double eta =
        seriesValue(series, "xbsp_progress_eta_seconds");
    const double elapsed =
        seriesValue(series, "xbsp_progress_elapsed_seconds");

    // Busy ratio: workers busy over the window, the mean of the
    // running-node counts at its two ends.  Never above `workers`:
    // the nodeBusy timer is no use here, since a node adds all of its
    // busy time when it settles, however much of it fell before the
    // window.
    std::optional<double> window, busyRatio, utilized, mdistPerSecond;
    if (previous) {
        window = windowSeconds * 1e3;
        busyRatio = (busyWorkers(*previous, workers) +
                     busyWorkers(series, workers)) /
                    2.0;
        utilized = 100.0 * *busyRatio / workers;
        mdistPerSecond =
            seriesRate(series, *previous,
                       "xbsp_kmeans_estep_distances_total",
                       windowSeconds) /
            1e6;
    }

    std::snprintf(line, sizeof(line),
                  "xbsp top — frame %llu, window %s, %.0f workers\n",
                  static_cast<unsigned long long>(frame),
                  orNa("%.0f ms", window).c_str(), workers);
    add();
    std::snprintf(line, sizeof(line),
                  "progress  %.0f/%.0f steps   elapsed %6.1fs   ",
                  done, total, elapsed);
    add();
    if (eta >= 0.0)
        std::snprintf(line, sizeof(line), "eta %6.1fs\n", eta);
    else
        std::snprintf(line, sizeof(line), "eta    n/a\n");
    add();
    std::snprintf(line, sizeof(line),
                  "scheduler %s utilized (worker-busy ratio %s over "
                  "%.0f workers)\n",
                  orNa("%5.1f%%", utilized).c_str(),
                  orNa("%.2f", busyRatio).c_str(), workers);
    add();

    // Per-stage table from the scheduler.stage.<stage>.<what>
    // counters: running = started - settled.
    out += "\n  stage      running     done    cache  skipped\n";
    for (const std::string& stage : schedulerStages(series)) {
        const std::string base = stagePrefix + stage;
        std::snprintf(line, sizeof(line),
                      "  %-9s %8.0f %8.0f %8.0f %8.0f\n",
                      stage.c_str(), runningNodes(series, stage),
                      seriesValue(series, base + "_settled_total"),
                      seriesValue(series, base + "_cache_total"),
                      seriesValue(series, base + "_skipped_total"));
        add();
    }

    const double hits = seriesValue(series, "xbsp_store_hits_total");
    const double misses =
        seriesValue(series, "xbsp_store_misses_total");
    const double probes = hits + misses;
    std::snprintf(line, sizeof(line),
                  "\nstore     %.0f hits / %.0f misses (%5.1f%% hit "
                  "rate)\n",
                  hits, misses,
                  probes > 0.0 ? 100.0 * hits / probes : 0.0);
    add();
    std::snprintf(
        line, sizeof(line),
        "e-step    %s Mdist/s (%.0f distances total)\n",
        orNa("%.2f", mdistPerSecond).c_str(),
        seriesValue(series, "xbsp_kmeans_estep_distances_total"));
    add();
    const double instrs = seriesValue(series, "xbsp_engine_instrs_total");
    const double bulk =
        seriesValue(series, "xbsp_engine_instrs_bulk_total");
    std::snprintf(
        line, sizeof(line),
        "engine    %.0f instrs, %5.1f%% skipped ahead (%.0f trips)\n",
        instrs, instrs > 0.0 ? 100.0 * bulk / instrs : 0.0,
        seriesValue(series, "xbsp_engine_trips_bulk_total"));
    add();
    std::snprintf(
        line, sizeof(line),
        "k-means   %.0f fits, %.0f proven cycles (%.0f iterations "
        "skipped), %.0f M-step rows in %.0f runs (%.0f rebuilds "
        "reused), %.0f k-means++ terms (%.0f sequential draws)\n",
        seriesValue(series, "xbsp_kmeans_fits_total"),
        seriesValue(series, "xbsp_kmeans_cycles_total"),
        seriesValue(series, "xbsp_kmeans_iterations_proven_total"),
        seriesValue(series, "xbsp_kmeans_mstep_rows_total"),
        seriesValue(series, "xbsp_kmeans_mstep_runs_total"),
        seriesValue(series, "xbsp_kmeans_mstep_reused_total"),
        seriesValue(series, "xbsp_kmeans_init_terms_total"),
        seriesValue(series, "xbsp_kmeans_init_fallbacks_total"));
    add();

    // Distributed executor, shown only when a serve daemon has ever
    // seen a worker or shipped a task (the series exist but are all
    // zero in plain local runs).
    const double distConnected =
        seriesValue(series, "xbsp_dist_workers_connected_total");
    const double distSubmitted =
        seriesValue(series, "xbsp_dist_tasks_submitted_total");
    if (distConnected > 0.0 || distSubmitted > 0.0) {
        const double distLost =
            seriesValue(series, "xbsp_dist_workers_lost_total");
        std::snprintf(line, sizeof(line),
                      "dist      %.0f workers (%.0f lost)   tasks "
                      "%.0f sent / %.0f done / %.0f failed / "
                      "%.0f retried / %.0f joined\n",
                      distConnected - distLost, distLost,
                      distSubmitted,
                      seriesValue(series,
                                  "xbsp_dist_tasks_completed_total"),
                      seriesValue(series,
                                  "xbsp_dist_tasks_failed_total"),
                      seriesValue(series,
                                  "xbsp_dist_tasks_retries_total"),
                      seriesValue(series,
                                  "xbsp_dist_tasks_coalesced_total"));
        add();
    }
    return out;
}

int
cmdTop(const Options& options)
{
    std::string socketPath = options.getString("metrics-socket");
    if (socketPath.empty()) {
        if (const char* env = std::getenv("XBSP_METRICS"))
            socketPath = env;
    }
    std::string tcpSpec = options.getString("metrics-tcp");
    if (tcpSpec.empty()) {
        if (const char* env = std::getenv("XBSP_METRICS_TCP"))
            tcpSpec = env;
    }
    net::Address endpoint{.path = socketPath};
    if (!tcpSpec.empty()) {
        const std::optional<int> port = parseTcpPort(tcpSpec);
        if (!port || *port == 0)
            fatal("bad --metrics-tcp port '{}' (want 1-65535)",
                  tcpSpec);
        if (socketPath.empty())
            endpoint = {.tcp = true, .path = {}, .port = *port};
    }
    if (socketPath.empty() && tcpSpec.empty())
        fatal("top needs --metrics-socket PATH (or --metrics-tcp "
              "PORT) pointing at a run started with the same flag");

    const u64 intervalMs =
        std::max<u64>(1, options.getUint("interval-ms"));
    const u64 frames = options.getUint("count");  // 0 = until gone
    const bool plain = options.getBool("plain");

    using Clock = std::chrono::steady_clock;
    std::map<std::string, double> previous;
    Clock::time_point previousAt;
    for (u64 frame = 0; frames == 0 || frame < frames; ++frame) {
        std::string body;
        try {
            body = obs::httpGet(endpoint);
        } catch (const std::exception& e) {
            if (frame == 0)
                fatal("cannot scrape metrics endpoint: {}", e.what());
            inform("metrics endpoint gone ({}); run finished?",
                   e.what());
            return 0;
        }
        const Clock::time_point now = Clock::now();
        std::map<std::string, double> series =
            obs::parseExposition(body);
        const double windowSeconds =
            std::chrono::duration<double>(now - previousAt).count();
        if (!plain)
            std::fputs("\x1b[H\x1b[2J", stdout);
        std::fputs(renderTopFrame(series, frame ? &previous : nullptr,
                                  windowSeconds, frame + 1)
                       .c_str(),
                   stdout);
        previous = std::move(series);
        previousAt = now;
        std::fflush(stdout);
        if (frames == 0 || frame + 1 < frames)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(intervalMs));
    }
    return 0;
}

int
cmdManifest(const Options& options)
{
    const std::string path = options.positional().size() > 1
                                 ? options.positional()[1]
                                 : std::string("manifest.json");
    JsonValue doc;
    try {
        doc = parseJsonFile(path);
    } catch (const std::exception& e) {
        fatal("cannot read manifest '{}': {}", path, e.what());
    }

    const JsonValue* runs = doc.find("runs");
    if (!runs || !runs->isArray())
        fatal("'{}' is not a manifest (no \"runs\" array)", path);

    if (options.getBool("json")) {
        // Machine-readable mode: round-trip the parsed document
        // through the one canonical emitter (normalized whitespace,
        // member order preserved).
        JsonWriter w(std::cout);
        writeJsonValue(w, doc);
        std::cout << '\n';
        return 0;
    }

    for (std::size_t r = 0; r < runs->size(); ++r) {
        const JsonValue& run = runs->at(r);
        std::printf("run %zu: %s  (config %s, %llu workers, "
                    "%.1f ms)\n",
                    r, run.at("label").asString().c_str(),
                    run.at("configDigest").asString().empty()
                        ? "-"
                        : run.at("configDigest").asString().c_str(),
                    static_cast<unsigned long long>(
                        run.at("workers").asU64()),
                    static_cast<double>(run.at("wallNanos").asU64()) /
                        1e6);
        std::printf("  %4s  %-9s %-8s %-5s %10s %10s %3s  %s\n",
                    "node", "stage", "status", "probe", "wall-ms",
                    "busy-ms", "w", "label");
        const JsonValue& nodes = run.at("nodes");
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const JsonValue& node = nodes.at(i);
            const std::string& key = node.at("storeKey").asString();
            // Present only when the node executed on a remote worker
            // (xbsp serve + xbsp work).
            const JsonValue* remote = node.find("remoteWorker");
            const std::string via =
                remote ? "  via=" + remote->asString() : "";
            std::printf(
                "  %4llu  %-9s %-8s %-5s %10.2f %10.2f %3llu  "
                "%s%s%s%s\n",
                static_cast<unsigned long long>(
                    node.at("node").asU64()),
                node.at("stage").asString().c_str(),
                node.at("status").asString().c_str(),
                node.at("probe").asString().c_str(),
                static_cast<double>(node.at("wallNanos").asU64()) /
                    1e6,
                static_cast<double>(node.at("busyNanos").asU64()) /
                    1e6,
                static_cast<unsigned long long>(
                    node.at("worker").asU64()),
                node.at("label").asString().c_str(),
                key.empty() ? "" : "  key=",
                key.empty() ? "" : key.substr(0, 12).c_str(),
                via.c_str());
        }
    }
    return 0;
}

/** Split a comma-separated list, skipping empty segments. */
std::vector<std::string>
splitList(const std::string& text)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream is(text);
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** SuiteRequest from the submit flags + positional figure names. */
dist::SuiteRequest
suiteRequestFromOptions(const Options& options)
{
    dist::SuiteRequest request;
    request.figures.assign(options.positional().begin() + 1,
                           options.positional().end());
    request.workloads = splitList(options.getString("workloads"));
    request.workScale = options.getDouble("scale");
    request.intervalTarget = options.getUint("interval");
    request.maxK = maxKOption(options);
    request.seed = options.getUint("seed");
    request.core = std::string(cpu::coreKindName(coreOption(options)));
    return request;
}

int
cmdCores(const Options& options)
{
    harness::ExperimentConfig config;
    config.workScale = options.getDouble("scale");
    config.study = harness::defaultStudyConfig();
    config.study.intervalTarget = options.getUint("interval");
    config.study.simpoint.maxK = maxKOption(options);
    config.study.simpoint.seed = options.getUint("seed");
    config.workloads = splitList(options.getString("workloads"));
    if (config.workloads.empty())
        config.workloads.push_back(options.getString("workload"));

    const harness::CrossCoreReport report =
        harness::crossCoreComparison(config);
    report.cpi.print(std::cout);
    std::cout << "\n";
    report.speedup.print(std::cout);
    return 0;
}

// serve() blocks inside accept(); SIGTERM/SIGINT must reach the
// server object to end the loop and drain the workers gracefully.
dist::Server* activeServer = nullptr;

void
onServeSignal(int)
{
    if (activeServer)
        activeServer->stop();
}

int
cmdServe(const Options& options)
{
    dist::ServerOptions so;
    so.unixPath = options.getString("serve-socket");
    const std::string tcp = options.getString("serve-tcp");
    if (!tcp.empty()) {
        // 0 is legal here: it means "pick a port" (tests use it).
        const std::optional<int> port = parseTcpPort(tcp);
        if (!port)
            fatal("bad --serve-tcp port '{}' (want 0-65535)", tcp);
        so.tcpPort = *port;
    }
    if (so.unixPath.empty() && tcp.empty())
        fatal("serve needs --serve-socket PATH and/or "
              "--serve-tcp PORT");
    so.name = options.getString("worker-name");
    so.taskTimeoutMs =
        static_cast<int>(options.getUint("task-timeout-ms"));

    dist::Server server(so);
    activeServer = &server;
    struct sigaction sa = {};
    sa.sa_handler = onServeSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    if (so.tcpPort >= 0)
        inform("serving on tcp:{}{}", server.boundPort(),
               so.unixPath.empty() ? ""
                                   : " and unix:" + so.unixPath);
    else
        inform("serving on unix:{}", so.unixPath);
    server.serve();
    activeServer = nullptr;
    return 0;
}

int
cmdWork(const Options& options)
{
    dist::WorkerOptions wo;
    wo.connect = options.getString("connect");
    if (wo.connect.empty())
        fatal("work needs --connect unix:PATH or tcp:PORT");
    wo.name = options.getString("worker-name");
    return dist::runWorker(wo);
}

int
cmdSubmit(const Options& options)
{
    const dist::SuiteRequest request = suiteRequestFromOptions(options);
    if (options.getBool("local")) {
        // Same rendering path the daemon uses — the byte-compare
        // baseline for distributed runs.
        try {
            std::cout << dist::renderSuiteReport(request, nullptr);
        } catch (const std::exception& e) {
            fatal("{}", e.what());
        }
        return 0;
    }
    const std::string address = options.getString("connect");
    if (address.empty())
        fatal("submit needs --connect unix:PATH or tcp:PORT "
              "(or --local)");
    dist::SuiteResponse response;
    try {
        response = dist::submitSuite(address, request);
    } catch (const std::exception& e) {
        fatal("submit to {} failed: {}", address, e.what());
    }
    if (!response.ok)
        fatal("server error: {}", response.error);
    std::cout << response.report;
    return 0;
}

/**
 * Hidden helper for the cross-process codec test: decode a
 * serialized StageTask from the given file, re-encode it through
 * this process's codecs, write the bytes to <file>.rt and print
 * "<stage-key> match|MISMATCH".  A parent test process encodes in
 * one address space and byte-compares what a fresh exec'd process
 * produces — the strongest form of the codec round-trip guarantee.
 */
int
cmdCodecRoundtrip(const Options& options)
{
    if (options.positional().size() < 2)
        fatal("usage: xbsp codec-roundtrip <payload-file>");
    const std::string& path = options.positional()[1];
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '{}'", path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string original = buf.str();

    dist::StageTask task;
    try {
        task = dist::decodeStageTask(original);
    } catch (const serial::DecodeError& e) {
        fatal("decode '{}': {}", path, e.what());
    }
    const std::string reencoded = dist::encodeStageTask(task);
    std::ofstream out(path + ".rt", std::ios::binary);
    out.write(reencoded.data(),
              static_cast<std::streamsize>(reencoded.size()));
    if (!out)
        fatal("cannot write '{}'", path + ".rt");
    out.close();
    std::printf("%s %s\n", dist::stageTaskKey(task).c_str(),
                reencoded == original ? "match" : "MISMATCH");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Options options(
        "xbsp <command> [options] — commands: list, describe, bbv, "
        "simpoints, study, graph, cache, top, manifest, serve, "
        "work, submit, cores");
    options.addString("workload", "workload name", "swim");
    options.addString("target", "binary target (32u/32o/64u/64o)",
                      "32u");
    options.addDouble("scale", "work scale", 1.0);
    options.addUint("interval", "interval target (instructions)",
                    250000);
    options.addUint("maxk", "SimPoint cluster cap", 10);
    options.addUint("seed", "SimPoint seed", 42);
    options.addString("bb", "input .bb file (simpoints command)", "");
    options.addString("lengths", "input lengths file", "");
    options.addString("out", "output path prefix", "");
    options.addString("regions", "region-spec output prefix", "");
    options.addBool("stats", "dump gem5-style stats (study)", false);
    options.addBool("dot", "emit Graphviz DOT instead of JSON (graph)",
                    false);
    options.addBool("run",
                    "execute the graph before dumping it, so nodes "
                    "carry final statuses (graph)", false);
    options.addString("cache-dir",
                      "artifact cache directory (default: "
                      "XBSP_CACHE_DIR)", "");
    options.addBool("cache",
                    "consult the artifact cache (--no-cache forces "
                    "recomputation)", true);
    options.addUint("budget-mb", "byte budget for `cache gc`, in MiB",
                    1024);
    options.addUint("interval-ms", "refresh period for `top`", 1000);
    options.addUint("count",
                    "frames to render before exiting `top` (0 = "
                    "until the endpoint goes away)", 0);
    options.addBool("plain",
                    "no screen clearing between `top` frames", false);
    options.addBool("json",
                    "machine-readable output (`cache stats`, "
                    "`manifest`)", false);
    options.addString("serve-socket",
                      "unix socket the daemon listens on (`serve`)",
                      "");
    options.addString("serve-tcp",
                      "loopback TCP port the daemon listens on "
                      "(`serve`; 0 = ephemeral, printed at startup)",
                      "");
    options.addString("connect",
                      "daemon address for `work`/`submit`: unix:PATH "
                      "or tcp:PORT", "");
    options.addString("worker-name",
                      "self-reported identity (`serve`/`work`; "
                      "default: pid)", "");
    options.addString("workloads",
                      "comma-separated workload subset for `submit` "
                      "(empty = full suite)", "");
    options.addBool("local",
                    "render `submit` in-process through the daemon's "
                    "exact code path (byte-compare baseline)", false);
    options.addUint("task-timeout-ms",
                    "per-stage deadline before a worker is declared "
                    "dead (`serve`)", 120000);
    options.addString("core",
                      "timing core: inorder|decoupled (a model knob — "
                      "changes results and store keys)", "inorder");
    options.addJobs();
    obs::addCliOptions(options);
    if (!options.parse(argc, argv))
        return 0;

    // Client-side commands: they attach to (or read the output of)
    // another process and must not start an ObsSession of their own —
    // --metrics-socket here names the endpoint to scrape, not one to
    // serve.
    if (!options.positional().empty()) {
        const std::string& command = options.positional()[0];
        if (command == "top")
            return cmdTop(options);
        if (command == "manifest")
            return cmdManifest(options);
    }

    options.applyJobs();

    // An unknown --core is fatal for every command, before any
    // stage runs.
    (void)coreOption(options);

    // Resolve the artifact store before any stage can run: an
    // explicit --cache-dir wins over XBSP_CACHE_DIR (which global()
    // otherwise picks up lazily); --no-cache wins over both.
    if (!options.getBool("cache"))
        store::ArtifactStore::configureGlobal({});
    else if (const std::string dir = options.getString("cache-dir");
             !dir.empty())
        store::ArtifactStore::configureGlobal({dir, true});
    // Writes --stats-out / --trace-out files when main returns.
    obs::ObsSession obsSession(options);

    if (options.positional().empty()) {
        options.printHelp();
        return 1;
    }
    const std::string& command = options.positional()[0];
    if (command == "list")
        return cmdList();
    if (command == "describe")
        return cmdDescribe(options);
    if (command == "bbv")
        return cmdBbv(options);
    if (command == "simpoints")
        return cmdSimpoints(options);
    if (command == "study")
        return cmdStudy(options);
    if (command == "graph")
        return cmdGraph(options);
    if (command == "cache")
        return cmdCache(options);
    if (command == "serve")
        return cmdServe(options);
    if (command == "work")
        return cmdWork(options);
    if (command == "submit")
        return cmdSubmit(options);
    if (command == "cores")
        return cmdCores(options);
    if (command == "codec-roundtrip")  // hidden; cross-process tests
        return cmdCodecRoundtrip(options);
    fatal("unknown command '{}'", command);
}
