/**
 * @file
 * End-to-end benchmark of the Fusion store on both clocks: simulated
 * time (the paper's latency and wire metrics) and the program's own
 * run time (how fast the C++ runs, on the CPU clock). One process sets
 * up one workload, warms it up, measures whole rounds of operations for
 * --seconds of wall time, checks every query result against a reference
 * evaluation made over the generated source tables, runs the property
 * checks, and prints one JSON line:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * every measured round records wall-clock spans around each call into
 * a layer, and the metrics are the per-layer ones (the self-time table
 * and the program's counter deltas also go to --trace-out).
 *
 * Usage:
 *   perfbench --workload scan-fresh|zipf-shared|ingest-degraded
 *             --seed N --seconds S --trace 0|1 [--trace-out PATH]
 *
 * See README.md next to this file for the workload definitions.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "benchutil/rigs.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "format/reader.h"
#include "format/writer.h"
#include "obs/metrics.h"
#include "query/ast.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"
#include "store/fusion_store.h"
#include "workload/lineitem.h"
#include "workload/taxi.h"

#include "reference.h"
#include "spans.h"

using namespace fusion;

namespace perfbench {
namespace {

// ---- arguments --------------------------------------------------------

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "scan-fresh|zipf-shared|ingest-degraded --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            a.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + flag).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0 && a.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return a;
}

// ---- helpers -----------------------------------------------------------

using format::Table;
using format::Value;
using query::AggregateKind;
using query::CompareOp;
using query::Query;

Query
makeQuery(const std::string &table,
          std::vector<query::Projection> projections,
          std::vector<query::Predicate> filters)
{
    Query q;
    q.table = table;
    q.projections = std::move(projections);
    q.filters = std::move(filters);
    return q;
}

/**
 * A double literal rounded to 6 significant digits, so that %g (the
 * store's literal rendering) prints it exactly: fresh literals then
 * never share a rendering unless they are equal.
 */
double
sixDigits(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::strtod(buf, nullptr);
}

uint64_t
plainBytes(const Table &t)
{
    uint64_t bytes = 0;
    for (size_t c = 0; c < t.numColumns(); ++c)
        bytes += t.column(c).plainEncodedSize();
    return bytes;
}

uint64_t
snapCount(const obs::MetricsSnapshot &s, const std::string &name)
{
    auto it = s.values.find(name);
    return it == s.values.end() ? 0 : it->second.count;
}

double
snapNumber(const obs::MetricsSnapshot &s, const std::string &name)
{
    auto it = s.values.find(name);
    return it == s.values.end() ? 0.0 : it->second.number;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Busy seconds per server of a resource over [0, now]. */
double
busyPerSlot(const sim::SimResource &r, double now)
{
    return r.utilization(now) * now;
}

/**
 * Quantile literals: per column, the literal at every 1/kSteps quantile
 * (printable exactly by the store). Only this grid is kept, not a sorted
 * copy of each column, so that the benchmark's own share of peak RSS
 * stays small.
 */
struct QuantileGrid {
    static constexpr size_t kSteps = 10000;
    std::vector<std::vector<Value>> cols;

    explicit QuantileGrid(const Table &t)
    {
        for (size_t c = 0; c < t.numColumns(); ++c) {
            const format::ColumnData &col = t.column(c);
            std::vector<Value> grid;
            grid.reserve(kSteps + 1);
            auto each = [&](auto values, auto literal) {
                std::sort(values.begin(), values.end());
                for (size_t i = 0; i <= kSteps; ++i)
                    grid.push_back(
                        literal(values[i * (values.size() - 1) / kSteps]));
            };
            switch (col.type()) {
              case format::PhysicalType::kInt32:
                each(col.int32s(), [](int32_t v) { return Value(int64_t{v}); });
                break;
              case format::PhysicalType::kInt64:
                each(col.int64s(), [](int64_t v) { return Value(v); });
                break;
              case format::PhysicalType::kDouble:
                each(col.doubles(),
                     [](double v) { return Value(sixDigits(v)); });
                break;
              case format::PhysicalType::kString:
                each(col.strings(), [](const std::string &v) { return Value(v); });
                break;
            }
            cols.push_back(std::move(grid));
        }
    }

    /** Literal at quantile q in [0, 1]. */
    Value
    at(size_t col, double q) const
    {
        return cols.at(col).at(static_cast<size_t>(q * double(kSteps)));
    }
};

// ---- the run -------------------------------------------------------------

/** Per-query figures summed over the measured phase. */
struct OutcomeTotals {
    uint64_t queries = 0;
    uint64_t networkBytes = 0;
    uint64_t rowGroupsScanned = 0;
    uint64_t rowGroupsSkipped = 0;
    uint64_t pushdowns = 0; // filter + projection chunks pushed down
    uint64_t fetches = 0;   // filter + projection chunks fetched
    uint64_t cachedLocal = 0;
    uint64_t fallbacks = 0;
    uint64_t reconstructions = 0;
    uint64_t retries = 0;
    uint64_t deltaScans = 0;

    void
    add(const store::QueryOutcome &o)
    {
        ++queries;
        networkBytes += o.networkBytes;
        rowGroupsScanned += o.rowGroupsScanned;
        rowGroupsSkipped += o.rowGroupsSkipped;
        pushdowns += o.filterChunkPushdowns + o.projectionPushdowns;
        fetches += o.filterChunkFetches + o.projectionFetches;
        cachedLocal += o.filterChunkCached + o.projectionCachedLocal;
        fallbacks += o.pushdownFallbacks;
        reconstructions += o.parityReconstructions;
        retries += o.readRetries;
        deltaScans += o.deltaSegmentsScanned;
    }
};

class Bench
{
  public:
    explicit Bench(const Args &args) : args_(args)
    {
        start_ = Clock::now();
    }

    int run();

  private:
    using Scope = Spans::Scope;

    // ---- set-up ----
    Table genLineitem(size_t rows, uint64_t seed)
    {
        Scope s(spans_, kWorkloadGen);
        return workload::makeLineitemTable(rows, seed);
    }
    Table genTaxi(size_t rows, uint64_t seed)
    {
        Scope s(spans_, kWorkloadGen);
        return workload::makeTaxiTable(rows, seed);
    }
    Bytes encode(const Table &t, size_t row_groups);
    void makeStore(uint64_t nominal_object_bytes, uint64_t cache_bytes);
    void put(const std::string &name, const Bytes &bytes);

    // ---- workloads ----
    void setupScanFresh();
    void setupZipfShared();
    void setupIngestDegraded();
    /** One closed-loop round (scan-fresh, ingest-degraded). */
    void runClosedRound();
    struct Issued;
    void issueBookkeeping(Issued &op);
    std::vector<Query> scanFreshRound();
    void buildIngestRound();
    /** Open-loop measured phase (zipf-shared). */
    void runOpenLoop(bool measured);

    // ---- checks and metrics ----
    void checkQuery(const Issued &op, const store::QueryOutcome &got);
    void fail(const std::string &why);
    void selfTest();
    void propertyChecksAtEnd();
    void beginMeasure();
    void endMeasure();
    double storedPerLogicalNow() const;
    void printResult();
    double windowQps(bool cpu) const;
    void closeWindow(size_t position, uint64_t queries);
    double traceOverheadPct() const;
    void writeTraceFile(const std::map<std::string, double> &layer_metrics);

    bool timeUp() const
    {
        return secondsSince(measureStart_) >= args_.seconds;
    }

    Args args_;
    Clock::time_point start_;
    Clock::time_point measureStart_;
    Spans spans_;
    Rng rng_{0};

    std::unique_ptr<sim::Cluster> cluster_;
    std::unique_ptr<store::FusionStore> store_;
    std::unique_ptr<sched::SharedScanScheduler> sched_;

    /** Source tables per object; batches appended since the last put. */
    struct Object {
        std::string name;
        const Table *base = nullptr;
        Bytes bytes; // encoded base, for rollover re-puts
        std::vector<std::unique_ptr<Table>> appended;
        uint64_t appendedRows = 0;
    };
    std::vector<Object> objects_;
    std::map<std::string, size_t> objectIndex_;
    std::vector<std::unique_ptr<Table>> tables_;
    std::vector<std::unique_ptr<QuantileGrid>> quantiles_;

    /** One operation of a closed-loop round. */
    struct Issued {
        bool isAppend = false;
        bool drillDown = false;
        size_t object = 0;
        Query q;
        std::unique_ptr<Table> batch; // appends
        size_t parts = 0;             // appended batches visible at plan
        uint64_t baseRows = 0;        // base rows at plan time
        std::vector<uint64_t> rgRows; // base row-group sizes at plan
        /** (row group x column) chunks whose data lives on the crashed
         *  node, at plan time (ingest-degraded). */
        std::vector<char> onCrashed;
        bool done = false;
        store::QueryOutcome outcome;
    };
    std::vector<Issued> round_;
    size_t clients_ = 0;
    bool dropBeforeQuery_ = false;
    size_t crashedNode_ = SIZE_MAX;
    /** Shape counters of the ingest-degraded query sequence. */
    size_t ingestQueries_ = 0, ingestAggregates_ = 0, ingestSingles_ = 0;
    /** Queries that had to read a chunk held by the crashed node. */
    uint64_t degradedQueries_ = 0;

    /** First literal set seen per (object, rendering) since the memos
     *  were last dropped: the memo-key collision detector. */
    std::map<std::string, std::vector<Value>> renders_;

    // zipf-shared
    struct Template {
        std::vector<query::Projection> proj;
        std::vector<query::Predicate> filters;
    };
    std::vector<Template> templates_;
    std::vector<size_t> objectGroup_; // object -> distinct table index
    std::map<std::pair<size_t, size_t>, query::QueryResult> zipfRef_;

    // measured-phase tallies
    bool measuring_ = false;
    OutcomeTotals totals_;
    SampleHistogram simLatency_;
    std::vector<double> appendLatency_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    bool correct_ = true;
    int problemsPrinted_ = 0;
    double setupSeconds_ = 0.0;
    double measureProgramSeconds_ = 0.0;
    double measureProgramCpuSeconds_ = 0.0;
    /** A rate window of the measured phase: its position in the
     *  workload's cycle, the queries it completed and the program wall
     *  and CPU seconds it took. */
    struct Window {
        size_t position;
        uint64_t queries;
        double seconds;
        double cpuSeconds;
    };
    double windowStart_ = 0.0;
    double windowCpuStart_ = 0.0;
    std::vector<Window> windows_;
    double measureSimStart_ = 0.0, measureSimEnd_ = 0.0;
    uint64_t netStart_ = 0, netEnd_ = 0;
    uint64_t eventsStart_ = 0, eventsEnd_ = 0;
    obs::MetricsSnapshot storeStart_, storeEnd_, globalStart_, globalEnd_;
    struct ResourceMark {
        std::vector<double> disk, nic, cpu;
    } resStart_, resEnd_;
    std::map<size_t, uint64_t> coordQueries_;
    /** Self-test input: one measured query with its reference. */
    bool haveSample_ = false;
    Query sampleQuery_;
    query::QueryResult sampleGot_, sampleWant_;
    // bytes encoded and put under recorded spans (MB/s numerators)
    uint64_t encodedPlainBytes_ = 0;
    uint64_t putBytes_ = 0;
    uint64_t appendBytesTraced_ = 0; // plain bytes appended under spans
    double genSetupSeconds_ = 0.0;
    /** stored_per_logical, averaged over measured round ends. */
    double storedPerLogicalSum_ = 0.0;
    uint64_t storedPerLogicalSamples_ = 0;
};

Bytes
Bench::encode(const Table &t, size_t row_groups)
{
    Scope s(spans_, kFormatEncode);
    format::WriterOptions options;
    options.rowGroupRows = (t.numRows() + row_groups - 1) / row_groups;
    auto file = format::writeTable(t, options);
    FUSION_CHECK_MSG(file.isOk(), file.status().toString());
    if (spans_.recording())
        encodedPlainBytes_ += plainBytes(t);
    return std::move(file.value().bytes);
}

void
Bench::makeStore(uint64_t nominal_object_bytes, uint64_t cache_bytes)
{
    sim::ClusterConfig config;
    config.numNodes = 9;
    // Node rates scale so `nominal_object_bytes` cost what the paper's
    // 10 GB lineitem file does (as the figure rigs do).
    config.node = benchutil::scaledNodeConfig(
        sim::NodeConfig{}, nominal_object_bytes, 10e9);
    cluster_ = std::make_unique<sim::Cluster>(config);
    store::StoreOptions options;
    // Set explicitly so FUSION_CACHE_BYTES in the environment cannot
    // change the workload.
    options.cacheBytes = cache_bytes;
    store_ = std::make_unique<store::FusionStore>(*cluster_, options);
}

void
Bench::put(const std::string &name, const Bytes &bytes)
{
    Scope s(spans_, kStorePut);
    auto r = store_->put(name, bytes);
    FUSION_CHECK_MSG(r.isOk(), r.status().toString());
    if (spans_.recording())
        putBytes_ += bytes.size();
}

void
Bench::fail(const std::string &why)
{
    correct_ = false;
    if (problemsPrinted_++ < 10)
        std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

// ---- scan-fresh ----------------------------------------------------------

// Data sizes and round shape (see README.md).
constexpr size_t kScanRows = 60000;
constexpr size_t kScanLineitemCopies = 3;
constexpr size_t kScanTaxiCopies = 2;
constexpr size_t kScanClients = 10;
constexpr size_t kScanRoundQueries = 200;
constexpr size_t kScanDrillDowns = 8; // 4% of a round
constexpr size_t kScanStride = kScanRoundQueries / kScanDrillDowns;

void
Bench::setupScanFresh()
{
    tables_.push_back(
        std::make_unique<Table>(genLineitem(kScanRows, args_.seed)));
    tables_.push_back(
        std::make_unique<Table>(genTaxi(kScanRows, args_.seed + 1)));
    Bytes li = encode(*tables_[0], 10);
    Bytes tx = encode(*tables_[1], 16);
    makeStore(li.size(), 0);
    for (size_t i = 0; i < kScanLineitemCopies + kScanTaxiCopies; ++i) {
        bool is_li = i < kScanLineitemCopies;
        Object o;
        o.name = (is_li ? "lineitem" : "taxi") +
                 std::to_string(is_li ? i : i - kScanLineitemCopies);
        o.base = tables_[is_li ? 0 : 1].get();
        put(o.name, is_li ? li : tx);
        objectIndex_[o.name] = objects_.size();
        objects_.push_back(std::move(o));
    }
    clients_ = kScanClients;
}

/**
 * One scan-fresh round. The sequence of query shapes is the same in
 * every round and for every seed; the seed draws the data, the literal
 * quantiles and nothing else, so runs differ only where the inputs do.
 *
 * Slot i % kScanStride == 3 is an anchor: SELECT <col> FROM lineitemN
 * WHERE l_extendedprice < v, with v a stored price with no cents and at
 * least 10000. Slot i % kScanStride == 13 is its drill-down: the anchor
 * re-issued with the bound moved one cent up to v + 0.01, across the
 * stored value v, so the right answer differs from the anchor's. Under
 * the store's %g literal rendering the two print alike, so a memo keyed
 * by that rendering answers the drill-down with the anchor's result;
 * the checker counts that as a failed operation and accepts a
 * drill-down answered correctly. Of the other slots every fifth is a Table-4 shape
 * (Q1, Q2, Q3, Q4 in turn) and the rest are single-column queries that
 * cycle through every column of both tables and the four range
 * operators; every third single-column query on a numeric column
 * projects an aggregate (COUNT, SUM, AVG, MIN, MAX in turn).
 */
std::vector<Query>
Bench::scanFreshRound()
{
    const Table &li = *tables_[0];
    const Table &tx = *tables_[1];
    const QuantileGrid &sli = *quantiles_[0];
    const QuantileGrid &stx = *quantiles_[1];
    size_t li_copy = 0, tx_copy = 0;
    auto liName = [&] {
        return "lineitem" + std::to_string(li_copy++ % kScanLineitemCopies);
    };
    auto txName = [&] {
        return "taxi" + std::to_string(tx_copy++ % kScanTaxiCopies);
    };
    static const CompareOp kOps[] = {CompareOp::kLt, CompareOp::kGe,
                                     CompareOp::kLe, CompareOp::kGt};
    static const AggregateKind kAggs[] = {
        AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kAvg,
        AggregateKind::kMin, AggregateKind::kMax};
    size_t singles = 0, aggs = 0;
    auto single = [&] {
        const size_t n = li.numColumns() + tx.numColumns();
        const size_t k = singles++;
        const bool lineitem = k % n < li.numColumns();
        const Table &t = lineitem ? li : tx;
        const QuantileGrid &st = lineitem ? sli : stx;
        const size_t col = lineitem ? k % n : k % n - li.numColumns();
        const auto &desc = t.schema().column(col);
        const CompareOp op = kOps[(k / n) % 4];
        double q = rng_.uniformReal(0.001, 0.15);
        if (op == CompareOp::kGt || op == CompareOp::kGe)
            q = 1.0 - q;
        query::Projection proj{desc.name, AggregateKind::kNone};
        if (desc.physical != format::PhysicalType::kString && k % 3 == 2)
            proj.aggregate = kAggs[aggs++ % 5];
        return makeQuery(lineitem ? liName() : txName(), {proj},
                         {{desc.name, op, st.at(col, q)}});
    };
    auto q1 = [&] {
        std::vector<query::Projection> p;
        for (const char *c : {"l_quantity", "l_extendedprice", "l_discount",
                              "l_tax", "l_returnflag", "l_linestatus"})
            p.push_back({c, AggregateKind::kNone});
        return makeQuery(liName(), p,
                         {{"l_shipdate", CompareOp::kLt,
                           sli.at(workload::kShipDate,
                                  rng_.uniformReal(0.005, 0.03))}});
    };
    auto q2 = [&] {
        return makeQuery(
            liName(),
            {{"l_extendedprice", AggregateKind::kNone},
             {"l_discount", AggregateKind::kNone}},
            {{"l_shipdate", CompareOp::kGe,
              sli.at(workload::kShipDate, rng_.uniformReal(0.7, 0.85))},
             {"l_discount", CompareOp::kGe,
              Value(double(rng_.uniformInt(3, 7)) / 100.0)},
             {"l_quantity", CompareOp::kLt,
              Value(int64_t{rng_.uniformInt(15, 30)})}});
    };
    auto q3 = [&] {
        return makeQuery(txName(), {{"", AggregateKind::kCount}},
                         {{"pickup_time", CompareOp::kLt,
                           stx.at(workload::kPickupTime,
                                  rng_.uniformReal(0.2, 0.5))}});
    };
    auto q4 = [&] {
        return makeQuery(txName(),
                         {{"pickup_date", AggregateKind::kNone},
                          {"fare_amount", AggregateKind::kAvg}},
                         {{"pickup_time", CompareOp::kLt,
                           stx.at(workload::kPickupTime,
                                  rng_.uniformReal(0.03, 0.1))}});
    };

    const auto &prices = li.column(workload::kExtendedPrice).doubles();
    std::vector<Query> out;
    out.reserve(kScanRoundQueries);
    size_t others = 0, anchors = 0;
    for (size_t i = 0; i < kScanRoundQueries; ++i) {
        const size_t slot = i % kScanStride;
        if (slot == 3) {
            // No cents and >= 10000: v and v + 0.01 agree in their
            // first six significant digits.
            double v = 0.0;
            do {
                v = prices[rng_.pickIndex(prices.size())];
            } while (!(v >= 10000.0 && v < 1e6 && v == std::floor(v)));
            const size_t col = (anchors++ * 5) % li.numColumns();
            out.push_back(makeQuery(
                "lineitem" + std::to_string(anchors % kScanLineitemCopies),
                {{li.schema().column(col).name, AggregateKind::kNone}},
                {{"l_extendedprice", CompareOp::kLt, Value(v)}}));
        } else if (slot == 13) {
            Query d = out[i - 10];
            d.filters[0].literal =
                Value(d.filters[0].literal.asDouble() + 0.01);
            out.push_back(std::move(d));
        } else {
            const size_t j = others++;
            if (j % 5 != 0)
                out.push_back(single());
            else if ((j / 5) % 4 == 0)
                out.push_back(q1());
            else if ((j / 5) % 4 == 1)
                out.push_back(q2());
            else if ((j / 5) % 4 == 2)
                out.push_back(q3());
            else
                out.push_back(q4());
        }
    }
    return out;
}

// ---- ingest-degraded -------------------------------------------------------

constexpr size_t kIngestObjects = 2;
constexpr size_t kIngestRows = 30000;
constexpr size_t kIngestClients = 4;
constexpr size_t kIngestAppendRows = 500;
/** Appends per round (alternating objects) and queries after each. */
constexpr size_t kIngestAppendsPerRound = 4;
constexpr size_t kIngestQueriesPerAppend = 4;
/** An object is replaced by its base again (a partition rollover) once
 *  this many rows were appended to it, so data size stays bounded. */
constexpr uint64_t kIngestRolloverRows = 15000;
/** Rounds from one rollover to the next: the ingest-degraded warm-up,
 *  and the unit in which its measured phase runs, so that every run
 *  covers whole cycles of delta growth, compaction and rollover. */
constexpr size_t kIngestCycleRounds =
    kIngestRolloverRows /
    (kIngestAppendsPerRound / kIngestObjects * kIngestAppendRows);
static_assert(kIngestAppendsPerRound % kIngestObjects == 0);
constexpr size_t kIngestCrashedNode = 4;

void
Bench::setupIngestDegraded()
{
    std::vector<Bytes> encoded;
    for (size_t i = 0; i < kIngestObjects; ++i) {
        tables_.push_back(std::make_unique<Table>(
            genLineitem(kIngestRows, args_.seed * 16 + i)));
        encoded.push_back(encode(*tables_.back(), 10));
    }
    makeStore(encoded[0].size(), 0);
    for (size_t i = 0; i < kIngestObjects; ++i) {
        Object o;
        o.name = "lineitem" + std::to_string(i);
        o.base = tables_[i].get();
        o.bytes = std::move(encoded[i]);
        put(o.name, o.bytes);
        objectIndex_[o.name] = objects_.size();
        objects_.push_back(std::move(o));
    }
    clients_ = kIngestClients;
    dropBeforeQuery_ = true;
}

void
Bench::buildIngestRound()
{
    // Partition rollover between rounds: nothing is in flight here.
    for (Object &o : objects_) {
        if (o.appendedRows < kIngestRolloverRows)
            continue;
        put(o.name, o.bytes);
        o.appended.clear();
        o.appendedRows = 0;
    }
    const QuantileGrid &s = *quantiles_[0];
    const Table &li = *tables_[0];
    round_.clear();
    for (size_t a = 0; a < kIngestAppendsPerRound; ++a) {
        Issued app;
        app.isAppend = true;
        app.object = a % kIngestObjects;
        // Fresh rows: a new generator seed per batch. Made outside any
        // span: input generation is not program time.
        app.batch = std::make_unique<Table>(
            workload::makeLineitemTable(kIngestAppendRows, rng_.next()));
        round_.push_back(std::move(app));
        for (size_t k = 0; k < kIngestQueriesPerAppend; ++k) {
            // Fixed shape sequence (as in scan-fresh); the seed draws
            // only data and literals. Every fifth query is a Q1-style
            // scan, two in five aggregate a numeric column over a
            // fresh date bound (COUNT, SUM, AVG, MIN, MAX in turn), the
            // rest are single-column scans cycling through the columns.
            Issued op;
            const size_t n = ingestQueries_++;
            op.object = n % kIngestObjects;
            const std::string &name = objects_[op.object].name;
            if (n % 5 == 0) {
                op.q = makeQuery(
                    name,
                    {{"l_quantity", AggregateKind::kNone},
                     {"l_extendedprice", AggregateKind::kNone},
                     {"l_returnflag", AggregateKind::kNone}},
                    {{"l_shipdate", CompareOp::kLt,
                      s.at(workload::kShipDate,
                           rng_.uniformReal(0.005, 0.03))}});
            } else if (n % 5 <= 2) {
                static const size_t kNumeric[] = {
                    workload::kOrderKey,      workload::kPartKey,
                    workload::kSuppKey,       workload::kLineNumber,
                    workload::kQuantity,      workload::kExtendedPrice,
                    workload::kDiscount,      workload::kTax,
                    workload::kShipDate,      workload::kCommitDate,
                    workload::kReceiptDate};
                static const AggregateKind kAggs[] = {
                    AggregateKind::kCount, AggregateKind::kSum,
                    AggregateKind::kAvg, AggregateKind::kMin,
                    AggregateKind::kMax};
                const size_t a = ingestAggregates_++;
                const auto &desc = li.schema().column(
                    kNumeric[a % std::size(kNumeric)]);
                op.q = makeQuery(
                    name, {{desc.name, kAggs[a % 5]}},
                    {{"l_shipdate", CompareOp::kGe,
                      s.at(workload::kShipDate,
                           rng_.uniformReal(0.5, 0.95))}});
            } else {
                const size_t col = ingestSingles_++ % li.numColumns();
                op.q = makeQuery(name,
                                 {{li.schema().column(col).name,
                                   AggregateKind::kNone}},
                                 {{li.schema().column(col).name,
                                   CompareOp::kLe,
                                   s.at(col, rng_.uniformReal(0.001, 0.1))}});
            }
            round_.push_back(std::move(op));
        }
    }
}

// ---- zipf-shared ---------------------------------------------------------

constexpr size_t kZipfTables = 8;  // distinct generated tables
constexpr size_t kZipfObjects = 64; // objects (copies of the tables)
constexpr size_t kZipfRows = 5000;
constexpr double kZipfTheta = 0.99;
constexpr size_t kZipfRound = 256; // arrivals per round
constexpr size_t kZipfWarmupRounds = 8;
/** Poisson arrival rate in queries per simulated second: near the
 *  knee of this cluster's latency-vs-load curve (see README.md). */
constexpr double kZipfRate = 700.0;

void
Bench::setupZipfShared()
{
    std::vector<Bytes> encoded;
    for (size_t g = 0; g < kZipfTables; ++g) {
        tables_.push_back(std::make_unique<Table>(
            genLineitem(kZipfRows, args_.seed * 16 + g)));
        encoded.push_back(encode(*tables_.back(), 10));
    }
    uint64_t logical = 0;
    for (size_t i = 0; i < kZipfObjects; ++i)
        logical += encoded[i % kZipfTables].size();
    // The whole object set costs what the paper's 10 GB file does; the
    // hot-chunk cache holds a tenth of it.
    makeStore(logical, logical / 10);
    for (size_t i = 0; i < kZipfObjects; ++i) {
        Object o;
        o.name = "li" + std::to_string(i);
        o.base = tables_[i % kZipfTables].get();
        put(o.name, encoded[i % kZipfTables]);
        objectIndex_[o.name] = objects_.size();
        objects_.push_back(std::move(o));
        objectGroup_.push_back(i % kZipfTables);
    }
    sched_ = std::make_unique<sched::SharedScanScheduler>(*store_);

    // Fixed template pool with fixed literals (all print exactly).
    using P = query::Projection;
    using F = query::Predicate;
    templates_ = {
        {{P{"l_extendedprice", AggregateKind::kNone}},
         {F{"l_quantity", CompareOp::kLt, Value(int64_t{10})}}},
        {{P{"l_orderkey", AggregateKind::kNone},
          P{"l_partkey", AggregateKind::kNone}},
         {F{"l_shipdate", CompareOp::kLt, Value(int64_t{200})}}},
        {{P{"", AggregateKind::kCount}},
         {F{"l_discount", CompareOp::kGe, Value(0.08)}}},
        {{P{"l_extendedprice", AggregateKind::kSum}},
         {F{"l_shipdate", CompareOp::kGe, Value(int64_t{2000})},
          F{"l_quantity", CompareOp::kLt, Value(int64_t{24})}}},
        {{P{"l_shipmode", AggregateKind::kNone}},
         {F{"l_tax", CompareOp::kLe, Value(0.01)}}},
        {{P{"l_comment", AggregateKind::kNone}},
         {F{"l_quantity", CompareOp::kGe, Value(int64_t{48})}}},
        {{P{"l_discount", AggregateKind::kAvg}},
         {F{"l_returnflag", CompareOp::kEq, Value(std::string("R"))}}},
        {{P{"l_suppkey", AggregateKind::kNone}},
         {F{"l_suppkey", CompareOp::kLt, Value(int64_t{500})}}},
    };
}

void
Bench::runOpenLoop(bool measured)
{
    sim::SimEngine &engine = cluster_->engine();
    ZipfSampler objectZipf(kZipfObjects, kZipfTheta);
    ZipfSampler templateZipf(templates_.size(), kZipfTheta);

    struct Arrival {
        size_t object, tmpl;
    };
    std::vector<Arrival> arrivals;
    std::vector<uint8_t> harvested;
    bool generating = true;
    double next_time = engine.now();
    std::function<void()> arrive = [&]() {
        // Drawing the arrival and the bookkeeping around the submit are
        // the benchmark's work, kept off the program clock.
        std::optional<Scope> own(std::in_place, spans_, kBench);
        size_t tag = arrivals.size();
        // ZipfSampler draws ranks in [1, n]; object li0 is the hottest.
        Arrival a{objectZipf.sample(rng_) - 1, templateZipf.sample(rng_) - 1};
        arrivals.push_back(a);
        harvested.push_back(0);
        const Template &t = templates_[a.tmpl];
        Query q = makeQuery(objects_[a.object].name, t.proj, t.filters);
        own.reset();
        {
            Scope s(spans_, kSchedSubmit);
            sched_->submit(q, tag);
        }
        own.emplace(spans_, kBench);
        ++coordQueries_[cluster_->coordinatorFor(q.table)];
        // Stop only at a round boundary, so every run attempts whole
        // rounds.
        if (arrivals.size() % kZipfRound == 0 &&
            (measured ? timeUp()
                      : arrivals.size() == kZipfRound * kZipfWarmupRounds))
            generating = false;
        if (generating)
            next_time += -std::log(1.0 - rng_.uniform()) / kZipfRate;
        own.reset();
        if (generating)
            engine.scheduleAt(next_time, arrive);
    };
    engine.scheduleAt(next_time, arrive);

    while (true) {
        sched::QueryHandle *h = nullptr;
        {
            Scope s(spans_, kSimRun);
            h = sched_->awaitAny();
            if (h == nullptr && !engine.step())
                break;
        }
        if (h == nullptr)
            continue;
        size_t tag = h->tag;
        if (tag >= arrivals.size() || harvested[tag]++ != 0)
            fail("handle harvested twice");
        if (!h->status().isOk()) {
            fail("query failed: " + h->status().toString());
            continue;
        }
        if (!(h->sojournSeconds() > 0.0))
            fail("sojourn not positive");
        if (!measured)
            continue;
        const Arrival &a = arrivals[tag];
        const store::QueryOutcome &o = h->outcome();
        totals_.add(o);
        simLatency_.add(h->sojournSeconds());
        if (++attempted_ % kZipfRound == 0)
            closeWindow(0, kZipfRound);

        // Reference result per (distinct table, template), made once.
        const Template &t = templates_[a.tmpl];
        Query q = makeQuery(objects_[a.object].name, t.proj, t.filters);
        auto key = std::make_pair(objectGroup_[a.object], a.tmpl);
        auto ref = zipfRef_.find(key);
        if (ref == zipfRef_.end())
            ref = zipfRef_
                      .emplace(key,
                               referenceEvaluate(q, {objects_[a.object].base}))
                      .first;
        std::string diff = compareResults(q, o.result, ref->second);
        if (!diff.empty())
            fail(q.toString() + ": " + diff);
        if (!haveSample_) {
            haveSample_ = true;
            sampleQuery_ = q;
            sampleGot_ = o.result;
            sampleWant_ = ref->second;
        }
    }
    for (size_t i = 0; i < harvested.size(); ++i)
        if (harvested[i] != 1)
            fail("handle " + std::to_string(i) + " harvested " +
                 std::to_string(harvested[i]) + " times");
}


// ---- closed-loop rounds ----------------------------------------------------

/**
 * What the checker needs to know about a query at the moment it is
 * issued: the appended batches and the base layout it is planned over,
 * and its rendering for the memo-key collision detector. This runs
 * inside engine callbacks, so a kBench span keeps it off the program
 * clock.
 */
void
Bench::issueBookkeeping(Issued &op)
{
    Scope own(spans_, kBench);
    const Object &obj = objects_[op.object];
    if (dropBeforeQuery_)
        renders_.clear();
    op.parts = obj.appended.size();
    if (crashedNode_ != SIZE_MAX) {
        auto m = store_->manifest(obj.name);
        FUSION_CHECK(m.isOk());
        const store::ObjectManifest &man = *m.value();
        const auto &meta = man.fileMeta;
        op.baseRows = meta.numRows;
        const size_t ncol = meta.schema.numColumns();
        op.onCrashed.assign(meta.numRowGroups() * ncol, 0);
        for (size_t rg = 0; rg < meta.numRowGroups(); ++rg) {
            op.rgRows.push_back(meta.rowGroups[rg].numRows);
            for (size_t c = 0; c < ncol; ++c) {
                const auto &nodes = man.nodesForChunk(man.chunkIdFor(rg, c));
                op.onCrashed[rg * ncol + c] =
                    std::find(nodes.begin(), nodes.end(), crashedNode_) !=
                    nodes.end();
            }
        }
    }
    std::vector<Value> literals;
    for (const auto &f : op.q.filters)
        literals.push_back(f.literal);
    renders_.emplace(obj.name + "|" + op.q.toString(), std::move(literals));
    ++coordQueries_[cluster_->coordinatorFor(obj.name)];
}

void
Bench::runClosedRound()
{
    size_t next = 0;
    std::function<void()> issue = [&]() {
        if (next >= round_.size())
            return;
        Issued &op = round_[next++];
        Object &obj = objects_[op.object];
        if (op.isAppend) {
            if (spans_.recording()) {
                Scope own(spans_, kBench);
                appendBytesTraced_ += plainBytes(*op.batch);
            }
            {
                Scope s(spans_, kAppend);
                store_->appendAsync(
                    obj.name, *op.batch,
                    [this, &op, &issue](Result<store::AppendResult> r) {
                        if (!r.isOk()) {
                            fail("append: " + r.status().toString());
                        } else {
                            op.outcome.latencySeconds =
                                r.value().simulatedAppendSeconds;
                        }
                        op.done = true;
                        issue();
                    });
            }
            // The rows are visible to every query planned from here on.
            obj.appendedRows += op.batch->numRows();
            obj.appended.push_back(std::move(op.batch));
            return;
        }
        if (dropBeforeQuery_) {
            Scope s(spans_, kDropCaches);
            store_->dropCaches();
        }
        issueBookkeeping(op);
        Scope s(spans_, kStoreQuery);
        store_->queryAsync(op.q, [this, &op, &issue](
                                     Result<store::QueryOutcome> r) {
            if (!r.isOk())
                fail(op.q.toString() + ": " + r.status().toString());
            else
                op.outcome = std::move(r.value());
            op.done = true;
            issue();
        });
    };
    for (size_t c = 0; c < clients_; ++c)
        issue();
    Scope s(spans_, kSimRun);
    cluster_->engine().run();
}

void
Bench::checkQuery(const Issued &op, const store::QueryOutcome &got)
{
    const Object &obj = objects_[op.object];
    TableParts parts{obj.base};
    for (size_t j = 0; j < op.parts; ++j)
        parts.push_back(obj.appended[j].get());
    query::QueryResult want = referenceEvaluate(op.q, parts);
    std::string diff = compareResults(op.q, got.result, want);
    if (!diff.empty()) {
        // A drill-down that renders like an earlier query on the same
        // object, but with other literals, got the earlier query's
        // memoized answer: the store's %g memo-key collision. Counted as
        // a failed operation; any other mismatch fails the check. A
        // drill-down answered correctly is an ordinary success.
        auto it = renders_.find(obj.name + "|" + op.q.toString());
        bool collision = false;
        if (it != renders_.end())
            for (size_t i = 0; i < op.q.filters.size(); ++i)
                if (!(it->second.at(i) == op.q.filters[i].literal))
                    collision = true;
        if (collision && op.drillDown) {
            if (measuring_)
                ++failed_;
        } else {
            fail(op.q.toString() + ": " + diff);
        }
    }
    if (measuring_ && !haveSample_) {
        haveSample_ = true;
        sampleQuery_ = op.q;
        sampleGot_ = got.result;
        sampleWant_ = want;
    }

    // Degraded reads: a query that must read a chunk whose data lives on
    // the crashed node has to report a reconstruction or a fallback.
    if (crashedNode_ != SIZE_MAX) {
        const size_t ncol =
            op.rgRows.empty() ? 0 : op.onCrashed.size() / op.rgRows.size();
        std::vector<size_t> cols;
        const auto &schema = obj.base->schema();
        for (const auto &name : op.q.filterColumns())
            cols.push_back(schema.columnIndex(name).value());
        for (const auto &name : op.q.projectionColumns())
            cols.push_back(schema.columnIndex(name).value());
        std::vector<size_t> rows = referenceSelect(op.q, parts);
        bool must = false;
        size_t rg = 0;
        uint64_t rg_end = op.rgRows.empty() ? 0 : op.rgRows[0];
        for (size_t row : rows) {
            if (row >= op.baseRows)
                break;
            while (row >= rg_end)
                rg_end += op.rgRows[++rg];
            for (size_t c : cols)
                must = must || op.onCrashed[rg * ncol + c];
            if (must)
                break;
        }
        degradedQueries_ += must ? 1 : 0;
        if (must && got.parityReconstructions + got.pushdownFallbacks == 0)
            fail("degraded query reported no reconstruction or fallback: " +
                 op.q.toString());
    }
}

// ---- measurement bookkeeping ------------------------------------------------

void
Bench::beginMeasure()
{
    measuring_ = true;
    measureStart_ = Clock::now();
    measureProgramSeconds_ = spans_.programSeconds();
    windowStart_ = measureProgramSeconds_;
    measureProgramCpuSeconds_ = spans_.programCpuSeconds();
    windowCpuStart_ = measureProgramCpuSeconds_;
    measureSimStart_ = cluster_->engine().now();
    netStart_ = cluster_->totalNetworkBytes();
    eventsStart_ = cluster_->engine().eventsProcessed();
    storeStart_ = store_->obs().metrics.snapshot();
    globalStart_ = obs::MetricsRegistry::global().snapshot();
    coordQueries_.clear();
    resStart_ = {};
    for (size_t i = 0; i < cluster_->numNodes(); ++i) {
        sim::StorageNode &n = cluster_->node(i);
        double t = measureSimStart_;
        resStart_.disk.push_back(busyPerSlot(n.disk(), t));
        resStart_.nic.push_back(busyPerSlot(n.nicIn(), t) +
                                busyPerSlot(n.nicOut(), t));
        resStart_.cpu.push_back(busyPerSlot(n.cpu(), t));
    }
}

void
Bench::endMeasure()
{
    measuring_ = false;
    measureProgramSeconds_ = spans_.programSeconds() - measureProgramSeconds_;
    measureProgramCpuSeconds_ =
        spans_.programCpuSeconds() - measureProgramCpuSeconds_;
    measureSimEnd_ = cluster_->engine().now();
    netEnd_ = cluster_->totalNetworkBytes();
    eventsEnd_ = cluster_->engine().eventsProcessed();
    storeEnd_ = store_->obs().metrics.snapshot();
    globalEnd_ = obs::MetricsRegistry::global().snapshot();
    resEnd_ = {};
    for (size_t i = 0; i < cluster_->numNodes(); ++i) {
        sim::StorageNode &n = cluster_->node(i);
        double t = measureSimEnd_;
        resEnd_.disk.push_back(busyPerSlot(n.disk(), t));
        resEnd_.nic.push_back(busyPerSlot(n.nicIn(), t) +
                              busyPerSlot(n.nicOut(), t));
        resEnd_.cpu.push_back(busyPerSlot(n.cpu(), t));
    }
    if (storedPerLogicalSamples_ == 0) {
        storedPerLogicalSum_ = storedPerLogicalNow();
        storedPerLogicalSamples_ = 1;
    }
}

/** Bytes on the nodes (data, padding, parity, live delta replicas) per
 *  logical byte (base objects plus live delta segments). */
double
Bench::storedPerLogicalNow() const
{
    uint64_t stored = 0, logical = 0;
    for (size_t i = 0; i < cluster_->numNodes(); ++i)
        stored += cluster_->node(i).storedBytes();
    for (const Object &o : objects_) {
        logical += store_->manifest(o.name).value()->objectSize;
        logical += store_->deltaLogStats(o.name).bytes;
    }
    return ratio(double(stored), double(logical));
}

void
Bench::propertyChecksAtEnd()
{
    if (args_.workload != "ingest-degraded" &&
        netEnd_ - netStart_ != totals_.networkBytes)
        fail("network bytes " + std::to_string(netEnd_ - netStart_) +
             " != sum of per-query bytes " +
             std::to_string(totals_.networkBytes));
    const auto &opt = store_->options();
    for (const Object &o : objects_) {
        const auto &layout = store_->manifest(o.name).value()->layout;
        if (layout.storedBytes() * opt.k < layout.dataBytes * opt.n)
            fail(o.name + ": stored bytes below dataBytes*n/k");
    }
    if (crashedNode_ == SIZE_MAX)
        return;
    if (degradedQueries_ == 0)
        fail("no query read a chunk held by the crashed node");
    for (const Object &o : objects_) {
        std::optional<Result<Bytes>> bytes;
        {
            Scope s(spans_, kStoreGet);
            bytes.emplace(store_->get(o.name));
        }
        if (!bytes->isOk()) {
            fail("get " + o.name + ": " + bytes->status().toString());
            continue;
        }
        std::optional<Result<Table>> table;
        {
            Scope s(spans_, kFormatDecode);
            auto reader = format::FileReader::open(Slice(bytes->value()));
            FUSION_CHECK(reader.isOk());
            table.emplace(reader.value().readTable());
        }
        FUSION_CHECK(table->isOk());
        Table want(o.base->schema());
        TableParts parts{o.base};
        for (const auto &b : o.appended)
            parts.push_back(b.get());
        for (const Table *p : parts)
            for (size_t c = 0; c < want.numColumns(); ++c)
                for (size_t r = 0; r < p->numRows(); ++r)
                    want.column(c).appendValue(p->column(c).valueAt(r));
        if (!tablesEqual(table->value(), want))
            fail("get " + o.name + " differs from base + appended rows");
    }
}

void
Bench::selfTest()
{
    if (!haveSample_) {
        fail("self-test: no sample query");
        return;
    }
    query::QueryResult bad = sampleGot_;
    bool corrupted = false;
    for (auto &col : bad.columns) {
        if (col.isAggregate) {
            col.aggregateValue = col.aggregateValue * (1.0 + 1e-6) + 1.0;
            corrupted = true;
            break;
        }
        if (col.values.size() > 0) {
            col.values.appendValue(col.values.valueAt(col.values.size() - 1));
            corrupted = true;
            break;
        }
    }
    if (!corrupted)
        ++bad.rowsMatched;
    if (!compareResults(sampleQuery_, sampleGot_, sampleWant_).empty())
        fail("self-test: checker refused the stored result");
    if (compareResults(sampleQuery_, bad, sampleWant_).empty())
        fail("self-test: checker accepted a corrupted result");
}

// ---- run -----------------------------------------------------------------

int
Bench::run()
{
    rng_.reseed(args_.seed * 0x9e3779b97f4a7c15ULL + 17);
    spans_.setRecording(args_.trace);
    const std::string &w = args_.workload;
    if (w == "scan-fresh")
        setupScanFresh();
    else if (w == "zipf-shared")
        setupZipfShared();
    else if (w == "ingest-degraded")
        setupIngestDegraded();
    else
        usage(("unknown workload " + w).c_str());
    setupSeconds_ = secondsSince(start_);
    genSetupSeconds_ = spans_.totals()[kWorkloadGen].totalSeconds;
    spans_.setRecording(false);

    if (w == "zipf-shared") {
        runOpenLoop(false); // warm-up round
        beginMeasure();
        spans_.setRecording(args_.trace);
        runOpenLoop(true);
        spans_.setRecording(false);
        endMeasure();
    } else {
        // Quantile sources: lineitem and taxi (scan-fresh), the first
        // lineitem table (ingest-degraded).
        for (size_t i = 0; i < (w == "scan-fresh" ? 2u : 1u); ++i)
            quantiles_.push_back(std::make_unique<QuantileGrid>(*tables_[i]));
        if (w == "ingest-degraded") {
            crashedNode_ = kIngestCrashedNode;
            cluster_->killNode(crashedNode_);
        }
        const size_t cycle = w == "scan-fresh" ? 1 : kIngestCycleRounds;
        for (size_t r = 0;; ++r) {
            const bool measured = r >= cycle;
            if (r == cycle)
                beginMeasure();
            if (measured && (r - cycle) % cycle == 0 && timeUp())
                break;
            if (w == "scan-fresh") {
                {
                    Scope s(spans_, kDropCaches);
                    store_->dropCaches();
                }
                renders_.clear();
                round_.clear();
                std::vector<Query> qs = scanFreshRound();
                for (size_t i = 0; i < qs.size(); ++i) {
                    Issued op;
                    op.object = objectIndex_.at(qs[i].table);
                    op.drillDown = i % kScanStride == 13;
                    op.q = std::move(qs[i]);
                    round_.push_back(std::move(op));
                }
            } else {
                buildIngestRound();
            }
            spans_.setRecording(args_.trace && measured);
            runClosedRound();
            spans_.setRecording(false);
            if (measured)
                closeWindow((r - cycle) % cycle,
                            std::count_if(round_.begin(), round_.end(),
                                          [](const Issued &op) {
                                              return !op.isAppend;
                                          }));
            for (const Issued &op : round_) {
                if (!op.done) {
                    fail("operation did not complete");
                    continue;
                }
                if (op.isAppend) {
                    if (measured) {
                        ++attempted_;
                        appendLatency_.push_back(op.outcome.latencySeconds);
                    }
                    continue;
                }
                checkQuery(op, op.outcome);
                if (measured) {
                    ++attempted_;
                    totals_.add(op.outcome);
                    simLatency_.add(op.outcome.latencySeconds);
                }
            }
            if (measured) {
                storedPerLogicalSum_ += storedPerLogicalNow();
                ++storedPerLogicalSamples_;
            }
        }
        endMeasure();
    }

    propertyChecksAtEnd();
    selfTest();
    printResult();
    return correct_ ? 0 : 1;
}

// ---- output --------------------------------------------------------------

/** Ends a rate window that completed `queries` queries. */
void
Bench::closeWindow(size_t position, uint64_t queries)
{
    const double now = spans_.programSeconds();
    const double cpu = spans_.programCpuSeconds();
    windows_.push_back(
        {position, queries, now - windowStart_, cpu - windowCpuStart_});
    windowStart_ = now;
    windowCpuStart_ = cpu;
}

/**
 * Queries completed per second of program time in the measured phase
 * (the benchmark's input generation and checks excluded), on the CPU
 * clock (`cpu`) or the wall clock, over the phase's uncontended
 * windows. A window is a scan-fresh or ingest-degraded round, or a
 * block of kZipfRound zipf-shared completions. The machine this runs on
 * swings between a fast and a slow speed every few seconds, as load
 * elsewhere on the host comes and goes; so for each position in the
 * workload's cycle (the round's place in an ingest-degraded rollover
 * cycle; a single position otherwise) the window at the 10th percentile
 * of seconds per query stands for that position, and the rate is their
 * queries over their seconds. Every position keeps its own work,
 * compaction rounds included.
 */
double
Bench::windowQps(bool cpu) const
{
    auto secs = [cpu](const Window &w) {
        return cpu ? w.cpuSeconds : w.seconds;
    };
    std::map<size_t, std::vector<Window>> byPosition;
    for (const Window &w : windows_)
        byPosition[w.position].push_back(w);
    double queries = 0.0, seconds = 0.0;
    for (auto &[position, ws] : byPosition) {
        std::sort(ws.begin(), ws.end(),
                  [&](const Window &a, const Window &b) {
                      return secs(a) * double(b.queries) <
                             secs(b) * double(a.queries);
                  });
        const Window &w = ws[(ws.size() - 1) / 10];
        queries += double(w.queries);
        seconds += secs(w);
    }
    return ratio(queries, seconds);
}

/**
 * Tracing overhead: the wall time recording the run's spans cost, as a
 * share of the program wall time of the traced measured phase. The
 * per-span cost is measured here, as the difference between recorded
 * and unrecorded scopes.
 */
double
Bench::traceOverheadPct() const
{
    constexpr int kScopes = 200000;
    auto cost = [&](bool record) {
        Spans probe;
        probe.setRecording(record);
        // Nested, so the probe scopes skip the CPU clock read that
        // outermost spans make whether or not they are recorded.
        Spans::Scope outer(probe, kSimRun);
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kScopes; ++i)
            Spans::Scope s(probe, kStoreQuery);
        return secondsSince(t0) / kScopes;
    };
    double per_span = std::max(0.0, cost(true) - cost(false));
    return ratio(per_span * double(spans_.recordCount()),
                 measureProgramSeconds_) * 100.0;
}

struct Metric {
    std::string name;
    const char *unit;
    double value;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
Bench::printResult()
{
    const double q = double(totals_.queries);
    const double dt = measureSimEnd_ - measureSimStart_;
    auto delta = [&](const char *name) {
        return double(snapCount(storeEnd_, name) -
                      snapCount(storeStart_, name));
    };
    auto gdelta = [&](const char *name) {
        return double(snapCount(globalEnd_, name) -
                      snapCount(globalStart_, name));
    };
    std::vector<double> append_lat = appendLatency_;
    std::sort(append_lat.begin(), append_lat.end());
    const double append_p50 =
        append_lat.empty() ? 0.0 : append_lat[(append_lat.size() - 1) / 2];

    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    // For comparison with cpu_qps: the rates over the whole measured
    // phase, slow stretches of the machine included, and the window
    // rate on the wall clock.
    std::fprintf(stderr,
                 "perfbench: whole-phase qps %.3f wall, %.3f cpu; "
                 "window qps %.3f wall\n",
                 ratio(q, measureProgramSeconds_),
                 ratio(q, measureProgramCpuSeconds_), windowQps(false));

    std::vector<Metric> metrics;
    if (!args_.trace) {
        metrics = {
            {"setup_s", "s", setupSeconds_},
            {"cpu_qps", "queries/cpu-s", windowQps(true)},
            {"sim_p50_ms", "ms",
             simLatency_.percentileInterpolated(50.0) * 1e3},
            {"sim_p99_ms", "ms",
             simLatency_.percentileInterpolated(99.0) * 1e3},
            {"wire_kb_per_query", "KB",
             ratio(double(totals_.networkBytes), q) / 1024.0},
            {"peak_rss_mb", "MB", double(usage.ru_maxrss) / 1024.0},
            {"stored_per_logical", "ratio",
             storedPerLogicalSum_ / double(storedPerLogicalSamples_)},
        };
    } else {
        auto totals = spans_.totals();
        auto self_us = [&](Layer l) {
            return ratio(totals[l].selfSeconds * 1e6, double(totals[l].calls));
        };
        auto mbps = [&](double bytes, Layer l) {
            return ratio(bytes / 1e6, totals[l].selfSeconds);
        };
        auto util = [&](const std::vector<double> &a,
                        const std::vector<double> &b, double servers) {
            double sum = 0.0;
            for (size_t i = 0; i < a.size(); ++i)
                sum += b[i] - a[i];
            return ratio(sum, dt * double(a.size()) * servers);
        };
        size_t coord = 0;
        uint64_t most = 0;
        for (const auto &[node, n] : coordQueries_)
            if (n > most) {
                most = n;
                coord = node;
            }
        double plan_hit = delta("cache.plan.hit");
        double decode_hit = delta("cache.decode.hit");
        double bitmap_hit = delta("cache.bitmap.hit");
        double chunk_hit = delta("cache.chunk.hits");
        double tasks_planned = delta("sched.tasks_planned");
        obs::MetricsSnapshot sched_diff = storeEnd_.diff(storeStart_);
        double queue_p99 = 0.0;
        auto qw = sched_diff.values.find("sched.queue_wait_seconds");
        if (qw != sched_diff.values.end())
            queue_p99 = obs::histogramPercentile(qw->second, 99.0);
        const double chunks =
            double(totals_.pushdowns + totals_.fetches + totals_.cachedLocal);
        const bool zipf = args_.workload == "zipf-shared";
        metrics = {
            {"workload.gen_s", "s", genSetupSeconds_},
            {"format.encode_MBps", "MB/s",
             mbps(double(encodedPlainBytes_), kFormatEncode)},
            {"append.MBps", "MB/s", mbps(double(appendBytesTraced_), kAppend)},
            {"append.sim_p50_ms", "ms", append_p50 * 1e3},
            {"store.put_MBps", "MB/s", mbps(double(putBytes_), kStorePut)},
            {"fac.overhead_vs_optimal", "ratio",
             store_->stats().overheadVsOptimal},
            {"ec.mac_bytes", "bytes",
             double(snapCount(globalEnd_, "ec.mac_bytes"))},
            {"store.plan_us", "us", self_us(zipf ? kSchedSubmit : kStoreQuery)},
            {"store.memo.plan_hit_rate", "ratio",
             ratio(plan_hit, plan_hit + delta("cache.plan.miss"))},
            {"store.memo.decode_hit_rate", "ratio",
             ratio(decode_hit, decode_hit + delta("cache.decode.miss"))},
            {"store.memo.bitmap_hit_rate", "ratio",
             ratio(bitmap_hit, bitmap_hit + delta("cache.bitmap.miss"))},
            {"store.rowgroups_skipped_share", "ratio",
             ratio(double(totals_.rowGroupsSkipped),
                   double(totals_.rowGroupsSkipped +
                          totals_.rowGroupsScanned))},
            {"query.pushdown_share", "ratio",
             ratio(double(totals_.pushdowns), chunks)},
            {"query.fetch_share", "ratio",
             ratio(double(totals_.fetches), chunks)},
            {"query.cached_local_share", "ratio",
             ratio(double(totals_.cachedLocal), chunks)},
            {"sim.events_per_query", "events",
             ratio(double(eventsEnd_ - eventsStart_), q)},
            {"sim.run_us_per_query", "us",
             ratio(totals[kSimRun].selfSeconds * 1e6, q)},
            {"sim.disk_util", "ratio", util(resStart_.disk, resEnd_.disk, 1.0)},
            {"sim.nic_util", "ratio", util(resStart_.nic, resEnd_.nic, 2.0)},
            {"sim.node_cpu_util", "ratio",
             util(resStart_.cpu, resEnd_.cpu, 1.0)},
            {"sim.coord_cpu_util", "ratio",
             ratio(resEnd_.cpu.at(coord) - resStart_.cpu.at(coord), dt)},
            {"wire.filter_kb_per_query", "KB",
             ratio(delta("wire.filter.request_bytes") +
                       delta("wire.filter.reply_bytes"),
                   q) / 1024.0},
            {"wire.projection_kb_per_query", "KB",
             ratio(delta("wire.projection.request_bytes") +
                       delta("wire.projection.reply_bytes"),
                   q) / 1024.0},
            {"wire.client_kb_per_query", "KB",
             ratio(delta("wire.client.request_bytes") +
                       delta("wire.client.reply_bytes"),
                   q) / 1024.0},
            {"cache.chunk_hit_rate", "ratio",
             ratio(chunk_hit, chunk_hit + delta("cache.chunk.misses"))},
            {"cache.chunk_evictions", "count", delta("cache.chunk.evictions")},
            {"cache.chunk_bytes", "bytes",
             snapNumber(storeEnd_, "cache.chunk.bytes")},
            {"sched.dedup_rate", "ratio",
             ratio(tasks_planned - delta("sched.tasks_issued"), tasks_planned)},
            {"sched.joined_inflight", "count", delta("sched.joined_inflight")},
            {"sched.fetch_conversions", "count",
             delta("sched.fetch_conversions")},
            {"sched.load_sheds", "count", delta("sched.load_sheds")},
            {"sched.queue_wait_p99_ms", "ms", queue_p99 * 1e3},
            {"sched.submit_us", "us", self_us(kSchedSubmit)},
            {"append.delta_scans_per_query", "segments",
             ratio(double(totals_.deltaScans), q)},
            {"compaction.runs", "count", delta("compaction.runs")},
            {"compaction.bytes_in", "bytes", delta("compaction.bytes_in")},
            {"compaction.bytes_out", "bytes", delta("compaction.bytes_out")},
            {"compaction.aborts", "count", delta("compaction.aborts")},
            {"fault.parity_reconstructions_per_query", "blocks",
             ratio(double(totals_.reconstructions), q)},
            {"fault.read_retries_per_query", "retries",
             ratio(double(totals_.retries), q)},
            {"fault.backoff_ms_per_query", "ms",
             ratio((snapNumber(storeEnd_, "fault.backoff_seconds") -
                    snapNumber(storeStart_, "fault.backoff_seconds")) * 1e3,
                   q)},
            {"fault.pushdown_fallbacks", "count", double(totals_.fallbacks)},
            {"pool.tasks", "count", gdelta("pool.parallel_for_items")},
            {"obs.trace_overhead_pct", "%", traceOverheadPct()},
            {"obs.traced_cpu_qps", "queries/cpu-s", windowQps(true)},
        };
        std::map<std::string, double> table;
        for (const auto &m : metrics)
            table[m.name] = m.value;
        writeTraceFile(table);
    }

    for (const auto &m : metrics)
        if (!std::isfinite(m.value))
            fail("metric " + m.name + " is not finite");
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " +
               jsonNumber(metrics[i].value) + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

void
Bench::writeTraceFile(const std::map<std::string, double> &layer_metrics)
{
    auto totals = spans_.totals();
    double all_self = 0.0;
    for (const auto &t : totals)
        all_self += t.selfSeconds;
    std::printf("%-20s %10s %12s %12s %8s\n", "layer", "calls", "total_ms",
                "self_ms", "self_%");
    std::string layers;
    for (size_t l = 0; l < kNumLayers; ++l) {
        const LayerTotals &t = totals[l];
        std::printf("%-20s %10llu %12.3f %12.3f %8.2f\n",
                    layerName(Layer(l)),
                    static_cast<unsigned long long>(t.calls),
                    t.totalSeconds * 1e3, t.selfSeconds * 1e3,
                    ratio(t.selfSeconds, all_self) * 100.0);
        if (l)
            layers += ",\n";
        layers += "    {\"layer\": \"" + std::string(layerName(Layer(l))) +
                  "\", \"calls\": " + std::to_string(t.calls) +
                  ", \"total_ms\": " + jsonNumber(t.totalSeconds * 1e3) +
                  ", \"self_ms\": " + jsonNumber(t.selfSeconds * 1e3) + "}";
    }
    if (args_.traceOut.empty())
        return;
    FILE *f = std::fopen(args_.traceOut.c_str(), "w");
    if (f == nullptr) {
        fail("cannot write " + args_.traceOut);
        return;
    }
    std::string metrics;
    for (const auto &[name, value] : layer_metrics) {
        if (!metrics.empty())
            metrics += ",\n";
        metrics += "    \"" + name + "\": " + jsonNumber(value);
    }
    std::fprintf(f,
                 "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
                 "  \"spans\": %zu,\n  \"queries\": %llu,\n"
                 "  \"layers\": [\n%s\n  ],\n"
                 "  \"metrics\": {\n%s\n  },\n"
                 "  \"store_counters\": %s,\n  \"global_counters\": %s\n}\n",
                 args_.workload.c_str(),
                 static_cast<unsigned long long>(args_.seed),
                 spans_.recordCount(),
                 static_cast<unsigned long long>(totals_.queries),
                 layers.c_str(), metrics.c_str(),
                 storeEnd_.diff(storeStart_).toJson().c_str(),
                 globalEnd_.diff(globalStart_).toJson().c_str());
    std::fclose(f);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args = perfbench::parseArgs(argc, argv);
    // One pool thread (inline parallelFor), whatever the environment
    // says: with a second one the rate depends on how soon the host
    // wakes an idle vCPU for it, which swings with other tenants' load.
    fusion::ThreadPool::setSharedThreads(1);
    perfbench::Bench bench(args);
    return bench.run();
}
