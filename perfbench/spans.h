/**
 * @file
 * Spans recorded by the benchmark around its calls into the store's
 * layers. Every outermost span adds its duration to two program clocks:
 * wall seconds (steady_clock) and the process's CPU seconds, which
 * leave out time the OS or the host did not run the process (cpu_qps
 * divides by the latter). When recording is on, spans are also kept in
 * memory with their parent so that per-layer self time (wall duration
 * minus the time covered by child spans) can be tabulated when the run
 * ends.
 *
 * kBench spans wrap the benchmark's own bookkeeping where it runs inside
 * a program span (in engine callbacks): their wall duration is taken off
 * both program clocks (they are a few microseconds each, too short to
 * be worth a CPU clock read), and, as child spans, off the enclosing
 * layer's self time.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <time.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Layer boundaries the benchmark times. */
enum Layer : uint8_t {
    kWorkloadGen = 0, // workload::make*Table
    kFormatEncode,    // format::writeTable (fpax encode + codecs)
    kStorePut,        // ObjectStore::put (FAC layout + RS encode)
    kStoreQuery,      // ObjectStore::queryAsync (plan + data plane)
    kSchedSubmit,     // SharedScanScheduler::submit (plan + window)
    kSimRun,          // SimEngine::run / step, scheduler awaitAny
    kAppend,          // ObjectStore::appendAsync
    kDropCaches,      // ObjectStore::dropCaches
    kStoreGet,        // ObjectStore::get
    kFormatDecode,    // format::FileReader::readTable
    kBench,           // the benchmark's own work inside a program span
    kNumLayers,
};

inline const char *
layerName(Layer layer)
{
    static const char *const kNames[kNumLayers] = {
        "workload.gen", "format.encode", "store.put",
        "store.query",  "sched.submit",  "sim.run",
        "append",       "store.drop_caches", "store.get",
        "format.decode", "bench",
    };
    return kNames[layer];
}

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** CPU seconds used by every thread of this process so far. */
inline double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** One recorded span. Parent is an index into the record list, or -1. */
struct SpanRecord {
    Layer layer;
    int32_t parent;
    Clock::time_point start;
    Clock::time_point end;
};

struct LayerTotals {
    uint64_t calls = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;
};

class Spans
{
  public:
    /** RAII span around one call into the program. */
    class Scope
    {
      public:
        Scope(Spans &spans, Layer layer) : spans_(spans), layer_(layer)
        {
            // Only outermost program spans read the CPU clock (a
            // system call).
            timesCpu_ = spans_.depth_ == 0 && layer_ != kBench;
            if (timesCpu_)
                cpuStart_ = processCpuSeconds();
            start_ = Clock::now();
            if (spans_.recording_) {
                index_ = static_cast<int32_t>(spans_.records_.size());
                spans_.records_.push_back(
                    {layer, spans_.open_, start_, start_});
                spans_.open_ = index_;
            }
            ++spans_.depth_;
        }
        ~Scope()
        {
            Clock::time_point end = Clock::now();
            double d = std::chrono::duration<double>(end - start_).count();
            double cpu = timesCpu_ ? processCpuSeconds() - cpuStart_ : 0.0;
            if (layer_ == kBench) {
                if (--spans_.depth_ > 0) {
                    spans_.programSeconds_ -= d;
                    spans_.programCpuSeconds_ -= d;
                }
            } else if (--spans_.depth_ == 0) {
                spans_.programSeconds_ += d;
                spans_.programCpuSeconds_ += cpu;
            }
            if (index_ >= 0) {
                SpanRecord &rec = spans_.records_[index_];
                rec.end = end;
                spans_.open_ = rec.parent;
            }
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        Layer layer_;
        Clock::time_point start_;
        double cpuStart_ = 0.0;
        bool timesCpu_ = false;
        int32_t index_ = -1;
    };

    /** Turns recording on or off; only legal between top-level spans. */
    void setRecording(bool on) { recording_ = on; }
    bool recording() const { return recording_; }

    /** Wall seconds spent inside top-level spans since construction,
     *  less the kBench spans nested in them. */
    double programSeconds() const { return programSeconds_; }

    /** Process CPU seconds (every thread) inside the same spans, less
     *  the wall duration of the nested kBench spans. */
    double programCpuSeconds() const { return programCpuSeconds_; }

    /** Per-layer calls, total and self time over every recorded span. */
    std::array<LayerTotals, kNumLayers>
    totals() const
    {
        std::array<LayerTotals, kNumLayers> out{};
        for (const SpanRecord &rec : records_) {
            double d = std::chrono::duration<double>(rec.end - rec.start)
                           .count();
            LayerTotals &t = out[rec.layer];
            ++t.calls;
            t.totalSeconds += d;
            t.selfSeconds += d;
            if (rec.parent >= 0)
                out[records_[rec.parent].layer].selfSeconds -= d;
        }
        return out;
    }

    size_t recordCount() const { return records_.size(); }

  private:
    bool recording_ = false;
    int depth_ = 0;
    int32_t open_ = -1;
    double programSeconds_ = 0.0;
    double programCpuSeconds_ = 0.0;
    std::vector<SpanRecord> records_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
