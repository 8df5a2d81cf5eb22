// PredictionPlanner in isolation (DESIGN.md Section 17): a fake sink
// stands in for the runtime, and every call gets an explicit clock, so
// transition windows close exactly when the test says.
//
// Covered: the check order freshness -> sink veto -> instantiation, the
// pending-result deferral the batched runtime relies on, and the removed
// FDQ id a mapping disproof reports to the runtime.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/prediction_planner.h"
#include "obs/observability.h"
#include "sql/template_cache.h"

namespace apollo::core {
namespace {

using util::Millis;
using util::Seconds;

/// Records what the planner hands the runtime. With `veto` set, vetoes
/// every FDQ the way rt's brownout does: the sink records the reason.
class FakeSink : public PredictionSink {
 public:
  FakeSink(obs::TraceLog* trace, bool veto) : trace_(trace), veto_(veto) {}

  bool Veto(const ClientSession& session, const Fdq& fdq,
            uint64_t /*trigger*/) override {
    ++veto_calls;
    if (!veto_) return false;
    trace_->Record(obs::TraceEventType::kPredictionSkipped, session.id,
                   fdq.id, obs::SkipReason::kOverload);
    return true;
  }
  void Issue(uint64_t /*template_id*/, const std::string& sql, int /*depth*/,
             double /*probability*/) override {
    issued.push_back(sql);
  }

  int veto_calls = 0;
  std::vector<std::string> issued;

 private:
  obs::TraceLog* trace_;
  bool veto_;
};

class PredictionPlannerTest : public ::testing::Test {
 protected:
  PredictionPlannerTest()
      : config_(MakeConfig()),
        planner_(config_, &templates_),
        session_(/*id=*/7, config_) {
    obs_.trace.set_enabled(true);
    obs::MetricsRegistry& m = obs_.metrics;
    planner_.AttachInstruments(
        {.fdqs_discovered = m.RegisterCounter("p.fdqs_discovered"),
         .fdqs_invalidated = m.RegisterCounter("p.fdqs_invalidated"),
         .skipped_fresh = m.RegisterCounter("p.skipped_fresh"),
         .skipped_incomplete = m.RegisterCounter("p.skipped_incomplete"),
         .trace = &obs_.trace});
  }

  static ApolloConfig MakeConfig() {
    ApolloConfig cfg;
    cfg.verification_period = 2;
    cfg.delta_ts = {Seconds(1)};
    return cfg;
  }

  static std::string AQuery(int i) {
    return "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " + std::to_string(i);
  }
  static std::string BQuery(int b_id) {
    return "SELECT B_V FROM B WHERE B_ID = " + std::to_string(b_id);
  }
  /// A's row for id `i`: (i, 100 + i); no row at all when `empty`.
  static common::ResultSetPtr ARows(int i, bool empty = false) {
    auto rs = std::make_shared<common::ResultSet>(
        std::vector<std::string>{"A_ID", "A_B_ID"});
    if (!empty) {
      rs->AddRow({common::Value::Int(i), common::Value::Int(100 + i)});
    }
    return rs;
  }
  static common::ResultSetPtr BRows(int b_id) {
    auto rs = std::make_shared<common::ResultSet>(
        std::vector<std::string>{"B_V"});
    rs->AddRow({common::Value::Int(b_id * 2)});
    return rs;
  }

  uint64_t Fingerprint(const std::string& sql) {
    return tcache_.Admit(sql)->fingerprint();
  }

  /// One completed client query at `now`: learning, then Algorithm 2.
  /// Returns the FDQ id a disproof removed (0 = none).
  uint64_t Run(const std::string& sql, common::ResultSetPtr result,
               util::SimTime now, FakeSink& sink) {
    auto adm = tcache_.Admit(sql);
    EXPECT_TRUE(adm.ok()) << sql;
    TemplateMeta* meta = templates_.Intern(*adm);
    templates_.BumpObservations(meta);
    const uint64_t removed =
        planner_.Learn(session_, adm->fingerprint(), adm->params, result,
                       adm->read_only(), now);
    planner_.Predict(session_, adm->fingerprint(), now, sink);
    return removed;
  }

  /// Rounds of A(i) -> B(100 + i), one second apart: confirms the
  /// A.A_B_ID -> B mapping and registers B as an FDQ fed by A.
  void Learn(FakeSink& sink, int rounds = 3) {
    for (int i = 1; i <= rounds; ++i) {
      Run(AQuery(i), ARows(i), now_, sink);
      Run(BQuery(100 + i), BRows(100 + i), now_ + Millis(1), sink);
      now_ += Seconds(2);
    }
    ASSERT_TRUE(planner_.dependency_graph().Contains(Fingerprint(BQuery(1))));
  }

  /// Skip events for `template_id`, as "reason" names.
  std::vector<std::string> Skips(uint64_t template_id) const {
    std::vector<std::string> out;
    for (const obs::TraceEvent& e : obs_.trace.Events()) {
      if (e.type == obs::TraceEventType::kPredictionSkipped &&
          e.template_id == template_id) {
        out.push_back(obs::TraceLog::ReasonName(e.reason));
      }
    }
    return out;
  }

  ApolloConfig config_;
  TemplateRegistry templates_;
  sql::TemplateCache tcache_;
  obs::Observability obs_;
  PredictionPlanner planner_;
  ClientSession session_;
  util::SimTime now_ = Seconds(10);
};

TEST_F(PredictionPlannerTest, LearnedFdqIsIssuedFromSourceRow) {
  FakeSink sink(&obs_.trace, /*veto=*/false);
  Learn(sink);
  sink.issued.clear();
  sink.veto_calls = 0;
  Run(AQuery(9), ARows(9), now_, sink);
  EXPECT_EQ(sink.issued, std::vector<std::string>{BQuery(109)});
  EXPECT_EQ(sink.veto_calls, 1);
}

TEST_F(PredictionPlannerTest, VetoRunsBeforeInstantiation) {
  FakeSink sink(&obs_.trace, /*veto=*/true);
  Learn(sink);
  const uint64_t b = Fingerprint(BQuery(1));
  obs_.trace.Clear();
  // A returns no row, so instantiating B would fail with
  // kIncompleteSources — but the veto comes first and is the only skip.
  Run(AQuery(999), ARows(999, /*empty=*/true), now_, sink);
  EXPECT_EQ(Skips(b), std::vector<std::string>{"overload"});
  EXPECT_TRUE(sink.issued.empty());

  // Without the veto the same state records the instantiation failure.
  FakeSink open(&obs_.trace, /*veto=*/false);
  obs_.trace.Clear();
  Run(AQuery(999), ARows(999, /*empty=*/true), now_ + Seconds(2), open);
  EXPECT_EQ(Skips(b), std::vector<std::string>{"incomplete_sources"});
  EXPECT_TRUE(open.issued.empty());
}

TEST_F(PredictionPlannerTest, FreshnessRunsBeforeVeto) {
  FakeSink sink(&obs_.trace, /*veto=*/true);
  // Every A is followed by a write to B's table within delta-t, so a B
  // prediction triggered by A would be invalidated before it is read.
  for (int i = 1; i <= 3; ++i) {
    Run(AQuery(i), ARows(i), now_, sink);
    Run(BQuery(100 + i), BRows(100 + i), now_ + Millis(1), sink);
    Run("UPDATE B SET B_V = 0 WHERE B_ID = " + std::to_string(100 + i),
        nullptr, now_ + Millis(2), sink);
    now_ += Seconds(2);
  }
  const uint64_t b = Fingerprint(BQuery(1));
  obs_.trace.Clear();
  sink.veto_calls = 0;
  Run(AQuery(9), ARows(9), now_, sink);
  EXPECT_EQ(Skips(b), std::vector<std::string>{"freshness"});
  EXPECT_EQ(sink.veto_calls, 0);
  EXPECT_TRUE(sink.issued.empty());
}

TEST_F(PredictionPlannerTest, FdqOnPendingResultIsDeferredNotIssued) {
  FakeSink sink(&obs_.trace, /*veto=*/false);
  Learn(sink);
  sink.issued.clear();
  const uint64_t a = Fingerprint(AQuery(1));
  const uint64_t b = Fingerprint(BQuery(1));

  // Pre-issue pass: A's result is still in flight.
  auto adm = tcache_.Admit(AQuery(9));
  planner_.Learn(session_, a, adm->params, /*result=*/nullptr,
                 /*read_only=*/true, now_);
  std::vector<const Fdq*> deferred;
  planner_.Predict(session_, a, now_, sink, /*pending_fresh=*/a, &deferred);
  ASSERT_EQ(deferred.size(), 1u);
  EXPECT_EQ(deferred[0]->id, b);
  EXPECT_TRUE(sink.issued.empty());
  EXPECT_TRUE(Skips(b).empty());

  // Post-pass: the result landed; the deferred FDQ now instantiates.
  session_.recent[a] = {ARows(9), now_ + Millis(1)};
  planner_.TryPredict(session_, *deferred[0], a, /*depth=*/0,
                      now_ + Millis(1), sink);
  EXPECT_EQ(sink.issued, std::vector<std::string>{BQuery(109)});
}

TEST_F(PredictionPlannerTest, DisproofReportsRemovedFdq) {
  FakeSink sink(&obs_.trace, /*veto=*/false);
  Learn(sink, /*rounds=*/2);  // confirmed on the 2nd round: no supports yet
  const uint64_t b = Fingerprint(BQuery(1));

  // B keeps arriving with a parameter A's row does not contain; the
  // fourth contradiction (ParamMapper::kMinViolations) disproves A -> B.
  std::vector<uint64_t> removed;
  for (int i = 1; i <= 4; ++i) {
    Run(AQuery(i), ARows(i), now_, sink);  // leaves a satisfied set for B
    removed.push_back(
        Run(BQuery(500 + i), BRows(500 + i), now_ + Millis(1), sink));
    now_ += Seconds(2);
  }
  EXPECT_EQ(removed, (std::vector<uint64_t>{0, 0, 0, b}));
  EXPECT_FALSE(planner_.dependency_graph().Contains(b));
  EXPECT_EQ(session_.satisfied.count(b), 0u);
  EXPECT_EQ(obs_.metrics.FindCounter("p.fdqs_invalidated")->Value(), 1u);
}

}  // namespace
}  // namespace apollo::core
