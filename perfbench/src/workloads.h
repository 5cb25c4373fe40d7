// The benchmark's three workloads. Each one regenerates every input tuple
// from the workload seed and its sequence number, names the standing and
// churned queries it submits, and computes the expected results of those
// queries from the regenerated inputs alone — without the engine — so the
// consumer's polled results can be checked against an independent
// reference.

#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/telegraphcq.h"

namespace perfbench {

/// Identity of one continuous result: an input tuple's sequence number (a),
/// or a join pair (a = left seq, b = right seq).
struct ResultId {
  uint64_t a = 0;
  uint64_t b = 0;
  auto operator<=>(const ResultId&) const = default;
};

/// Multiset digest: a count plus an order-insensitive (additive) hash.
struct Digest {
  uint64_t count = 0;
  uint64_t hash = 0;
  void Add(uint64_t h) {
    ++count;
    hash += h;
  }
  void Remove(uint64_t h) {
    --count;
    hash -= h;
  }
  bool operator==(const Digest&) const = default;
};

/// One fired window as the consumer saw it.
struct WindowRec {
  int64_t t = 0;
  Digest digest;
  /// Member sequence numbers; kept only for churned queries, whose early
  /// windows are checked as subsets.
  std::vector<uint64_t> seqs;
};

/// The fired windows of one standing windowed query, folded as the consumer
/// polls them: how many fired, and a sum over them of a hash of each
/// window's position in the firing order, its instant and its contents. Its
/// size does not grow with the run, so the benchmark's own records stay out
/// of the peak-RSS metrics.
struct WindowFold {
  uint64_t fired = 0;
  uint64_t hash = 0;
  /// Folds in the next window to fire.
  void Add(int64_t t, const Digest& d);
};

/// One churned query's life, as the churn and consumer threads saw it.
struct ChurnLog {
  int cycle = 0;
  uint64_t lo = 0;  ///< every seq >= lo began its push after Submit returned
  /// Every seq >= hi began its push after Cancel returned; bounds a
  /// windowed query's results and the acknowledged matches that must appear.
  uint64_t hi = 0;
  /// Continuous: the last punctuation watermark (= last acknowledged seq)
  /// seen per stream on the churned query's own egress before Cancel was
  /// called; -1 when none arrived.
  int64_t acked[2] = {-1, -1};
  int64_t t0 = 0;  ///< windowed: the churned loop's first instant
  std::vector<ResultId> ids;       ///< continuous results
  std::vector<WindowRec> windows;  ///< windowed results
};

/// Everything the output checks need from one run.
struct RunLog {
  uint64_t pushed = 0;  ///< seqs [0, pushed) were pushed
  /// Watermark of the last pushed batch: exactly the standing windows whose
  /// right edge lies below it must have fired.
  int64_t final_watermark = 0;
  std::vector<Digest> standing;                 ///< continuous, per query
  std::vector<WindowFold> windows;  ///< windowed, per query
  std::vector<ChurnLog> churn;
};

/// Verdict of the output checks.
struct Verdict {
  std::vector<std::string> errors;
  bool ok() const { return errors.empty(); }
  void Fail(std::string msg) {
    if (errors.size() < 20) errors.push_back(std::move(msg));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual bool windowed() const = 0;
  /// Paced phase: input rate (tuples/s) and batch size.
  virtual double paced_rate() const = 0;
  virtual size_t paced_batch() const { return 8; }
  /// Saturated phase: batch size and batches kept outstanding.
  virtual size_t saturated_batch() const { return 64; }
  virtual size_t depth() const { return 16; }
  /// Most tuples the saturated phase pushes before it ends early.
  virtual uint64_t saturated_cap() const { return UINT64_MAX; }
  virtual void ConfigureServer(tcq::TelegraphCQ::Options* opts) const {
    (void)opts;
  }

  // --- Inputs ---------------------------------------------------------------
  /// Stream names; a stream's index is its position here.
  const std::vector<std::string>& streams() const { return streams_; }
  /// Stream of input tuple `seq`. Constant over every 64-aligned block, so
  /// batches of 8 or 64 aligned rows go to one stream.
  virtual int StreamOf(uint64_t seq) const {
    (void)seq;
    return 0;
  }
  virtual int64_t TimestampOf(uint64_t seq) const = 0;
  virtual void Row(uint64_t seq, std::vector<tcq::Value>* out) const = 0;
  /// Watermark a punctuating stream promises after a batch whose largest
  /// timestamp is `max_ts`.
  virtual int64_t WatermarkFor(int64_t max_ts) const { return max_ts; }

  // --- Queries --------------------------------------------------------------
  virtual tcq::Status DefineStreams(tcq::TelegraphCQ* server) = 0;
  virtual size_t num_standing() const = 0;
  virtual std::string StandingSql(int q) const = 0;
  /// SQL of churn cycle `cycle`'s query. `next_seq` is the next sequence
  /// number the producer will push; windowed loops start past it and report
  /// their first instant in `t0`.
  virtual std::string ChurnSql(int cycle, uint64_t next_seq,
                               int64_t* t0) const = 0;

  // --- Results --------------------------------------------------------------
  /// Query handles: standing queries are 0..num_standing()-1, churn cycle c
  /// is num_standing() + c.
  int ChurnQuery(int cycle) const {
    return static_cast<int>(num_standing()) + cycle;
  }
  /// Continuous: the identity of a polled result tuple, and whether its
  /// values agree with the regenerated inputs and satisfy query q.
  virtual bool ContinuousResult(int q, const tcq::Tuple& t,
                                ResultId* id) const;
  /// Windowed: whether result tuple `t` of window `t_end` of query q agrees
  /// with the regenerated inputs, lies in the window and satisfies q; sets
  /// its seq.
  virtual bool WindowResult(int q, int64_t t_end, const tcq::Tuple& t,
                            uint64_t* seq) const;
  /// Hash of one result identity (the Digest summand).
  virtual uint64_t HashOf(const ResultId& id) const;

  // --- Reference, computed from regenerated inputs only ---------------------
  /// Checks `log` against the reference; appends failures to `v`.
  virtual void Verify(const RunLog& log, Verdict* v) const = 0;
  /// Builds the result log a correct engine would produce for `pushed`
  /// tuples and the given churn cycles (lo/hi/acked/t0 set by the caller).
  /// The checker self-test corrupts it.
  virtual RunLog Expected(uint64_t pushed,
                          const std::vector<ChurnLog>& churn) const = 0;

  /// Windowed workloads: loop of query q (first instant, step, width).
  struct Loop {
    int64_t t0 = 0;
    int64_t step = 1;
    int64_t width = 1;
  };
  virtual Loop LoopOf(int q, int64_t churn_t0) const {
    (void)q;
    (void)churn_t0;
    return Loop{};
  }
  /// Windowed workloads: checks the windows one churned query fired.
  /// `pushed` may be any count of tuples pushed once the query was detached:
  /// a window fires only after a batch whose watermark passed it, so every
  /// tuple it can hold was pushed by then. Verify() calls it for every
  /// churn cycle in the log.
  virtual void VerifyChurnWindows(const ChurnLog& c, uint64_t pushed,
                                  Verdict* v) const {
    (void)c;
    (void)pushed;
    (void)v;
  }
  /// Windowed workloads: the windows standing query q fires, in order, when
  /// tuples [0, pushed) were pushed and the last batch's watermark is
  /// `final_watermark`. Expected() folds them; the self-test corrupts them.
  virtual std::vector<WindowRec> ReferenceWindows(
      int q, uint64_t pushed, int64_t final_watermark) const {
    (void)q;
    (void)pushed;
    (void)final_watermark;
    return {};
  }

 protected:
  std::vector<std::string> streams_;
};

/// Builds a workload by name; nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);
/// Names of every workload.
std::vector<std::string> WorkloadNames();

}  // namespace perfbench
