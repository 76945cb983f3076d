#include "workloads.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "datasets/mozilla.h"
#include "datasets/synthetic.h"
#include "expr/expr.h"
#include "model.h"
#include "query/executor.h"
#include "query/materialized_view.h"
#include "query/optimizer.h"
#include "query/physical.h"
#include "relation/modifications.h"
#include "server/catalog.h"
#include "server/session.h"
#include "sql/parser.h"
#include "sql/statement.h"
#include "util/rng.h"

namespace perfbench {

using namespace ongoingdb;

namespace {

constexpr TimePoint kDay = 1;
constexpr TimePoint kYear = 365 * kDay;

std::string RtLabel(TimePoint rt) { return "rt " + DateLiteral(rt); }

// --- traced execution ------------------------------------------------------
//
// The traced run goes through the same public calls the untraced path
// makes inside Session::Execute / Execute, one span per call, so each
// module's share is timed from outside the program.

Result<OngoingRelation> TracedDrain(Harness* h, PhysicalOperator& op,
                                    size_t batch_capacity) {
  Tracer* tr = &h->tracer;
  OngoingRelation result(op.schema());
  if (const OngoingRelation* borrowed = op.BorrowedRelation()) {
    SpanScope drain(tr, "query.drain");
    result = *borrowed;
  } else {
    {
      SpanScope open(tr, "query.open");
      Status st = op.Open();
      if (!st.ok()) {
        op.Close();
        return st;
      }
    }
    SpanScope drain(tr, "query.drain");
    TupleBatch batch(batch_capacity);
    Status st;
    while (true) {
      st = op.Next(&batch);
      if (!st.ok() || batch.empty()) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        result.AppendUnchecked(std::move(batch.tuple(i)));
      }
    }
    op.Close();
    ONGOINGDB_RETURN_NOT_OK(st);
  }
  if (h->tracer.current_class() == SpanClass::kLead) {
    h->layer_samples["query.rows_out"].push_back(static_cast<double>(result.size()));
  }
  return result;
}

Result<OngoingRelation> TracedPlan(Harness* h, const PlanPtr& plan,
                                   const ParallelOptions& popts,
                                   QueryContext* ctx) {
  PhysicalOpPtr root;
  {
    SpanScope s(&h->tracer, "query.compile");
    ONGOINGDB_ASSIGN_OR_RETURN(root, Compile(plan, ExecMode::kOngoing, 0, popts, ctx));
  }
  return TracedDrain(h, *root, EffectiveBatchSize(popts));
}

// The SELECT path of Session::Execute: pin, parse, optimize, compile,
// open, drain.
Result<OngoingRelation> TracedSelect(Harness* h, const server::Catalog& catalog,
                                     const std::string& text,
                                     QueryContext* ctx) {
  Tracer* tr = &h->tracer;
  server::Snapshot snap;
  sql::Catalog view;
  {
    SpanScope s(tr, "server.pin");
    snap = catalog.PinSnapshot();
    view = snap.View();
  }
  ctx->Reset();
  ctx->SetSnapshotSeq(snap.commit_seq());
  PlanPtr plan;
  {
    SpanScope s(tr, "sql.parse");
    ONGOINGDB_ASSIGN_OR_RETURN(sql::ParsedStatement parsed,
                               sql::ParseStatement(text, view));
    ONGOINGDB_ASSIGN_OR_RETURN(plan, sql::ParseQuery(parsed.text, view));
  }
  {
    SpanScope s(tr, "query.optimize");
    ONGOINGDB_ASSIGN_OR_RETURN(plan, Optimize(plan));
  }
  return TracedPlan(h, plan, ParallelOptions{}, ctx);
}

// Runs a SELECT through the session (untraced) or through TracedSelect.
Result<OngoingRelation> Select(Harness* h, server::Session* session,
                               const server::Catalog& catalog,
                               const std::string& text, QueryContext* ctx) {
  if (h->tracer.on()) return TracedSelect(h, catalog, text, ctx);
  ONGOINGDB_ASSIGN_OR_RETURN(server::ExecResult r, session->Execute(text));
  if (!r.result.relation.has_value()) {
    return Status::Internal("SELECT returned no relation");
  }
  return std::move(*r.result.relation);
}

// Compares an ongoing result instantiated at rt, and the plan evaluated
// at rt with Clifford semantics (the paper's invariant), against the
// harness's own evaluation at rt.
void CheckAt(Harness* h, const std::string& label,
             const OngoingRelation& ongoing, const PlanPtr& plan, TimePoint rt,
             Rows expected) {
  Rows clifford_expected = expected;
  Rows bound = EncodeAt(ongoing, rt);
  h->checker.Expect(label + ", instantiated at " + RtLabel(rt),
                    DiffMultisets(&bound, &expected));
  auto clifford = ExecuteAtReferenceTime(plan, rt);
  if (!clifford.ok()) {
    h->checker.Fail(label + ", ExecuteAtReferenceTime: " +
                    clifford.status().ToString());
    return;
  }
  Rows at_rt = EncodeFixedRelation(*clifford);
  h->checker.Expect(label + ", ExecuteAtReferenceTime at " + RtLabel(rt),
                    DiffMultisets(&at_rt, &clifford_expected));
}

// Same as CheckAt for a SQL SELECT: the Clifford plan is parsed against
// a freshly pinned snapshot.
void CheckSqlAt(Harness* h, const server::Catalog& catalog,
                const std::string& text, const OngoingRelation& ongoing,
                TimePoint rt, Rows expected) {
  server::Snapshot snap = catalog.PinSnapshot();
  sql::Catalog view = snap.View();
  auto plan = sql::ParseQuery(text, view);
  if (!plan.ok()) {
    h->checker.Fail(text + ": " + plan.status().ToString());
    return;
  }
  CheckAt(h, text, ongoing, *plan, rt, std::move(expected));
}

std::string AssignKey(const AssignRow& a, TimePoint rt) {
  return RowKey().Int(a.id).Str(a.email).Iv(a.vt.start, a.vt.EndAt(rt)).Take();
}

RowKey& AppendBug(RowKey& key, const BugRow& b, TimePoint rt) {
  return key.Int(b.id).Str(b.product).Str(b.component).Str(b.os)
      .Str(b.description).Iv(b.vt.start, b.vt.EndAt(rt));
}

// Reference times a check samples: mid-history, shortly before the end
// of the history, and a year past it.
std::vector<TimePoint> SampleRts(TimePoint history_start,
                                 TimePoint history_end, uint64_t seed) {
  Rng rand(seed ^ 0x7272);
  const TimePoint span = history_end - history_start;
  return {history_start + span / 3 + rand.Uniform(0, span / 3),
          history_end - rand.Uniform(30, 300),
          history_end + rand.Uniform(200, 400)};
}

// --- serve_read ------------------------------------------------------------

class ServeRead final : public Workload {
 public:
  void Setup(uint64_t seed, Harness* /*h*/) override {
    datasets::MozillaOptions options;  // 20 000 bugs
    options.seed = seed;
    {
      datasets::MozillaBugs generated = datasets::GenerateMozillaBugs(options);
      data_ = DecodeMozilla(generated);
      Register("B", generated.bug_info);
      Register("A", generated.bug_assignment);
      Register("S", generated.bug_severity);
    }
    session_ = std::make_unique<server::Session>(1, &catalog_,
                                                 server::SessionOptions{});
    rts_ = SampleRts(data_.history_start, data_.history_end, seed);
    // One statement of each kind, at constants fixed relative to the
    // history so that only the data varies with the seed; every round
    // repeats them over the same, unchanged table version.
    Stmt overlaps;
    overlaps.kind = Kind::kOverlaps;
    overlaps.w1 = data_.history_end - 2 * kYear;
    overlaps.w2 = overlaps.w1 + 60;
    overlaps.sql = "SELECT ID, Email, VT FROM A WHERE VT OVERLAPS PERIOD ['" +
                   DateLiteral(overlaps.w1) + "', '" +
                   DateLiteral(overlaps.w2) + "')";
    stmts_.push_back(overlaps);
    Stmt contains;
    contains.kind = Kind::kContains;
    contains.w1 = data_.history_end - kYear;
    contains.sql = "SELECT ID, Email, VT FROM A WHERE VT CONTAINS DATE '" +
                   DateLiteral(contains.w1) + "'";
    stmts_.push_back(contains);
    Stmt lookup;
    lookup.kind = Kind::kLookup;
    lookup.id = static_cast<int64_t>(data_.b.size()) / 2;
    lookup.sql = "SELECT * FROM B WHERE ID = " + std::to_string(lookup.id);
    stmts_.push_back(lookup);
    Stmt join;
    join.kind = Kind::kJoin;
    join.severity = "critical";
    join.sql =
        "SELECT a.ID, a.Email, a.VT, s.Severity, s.VT FROM A a JOIN S s "
        "ON a.ID = s.ID AND a.VT OVERLAPS s.VT WHERE s.Severity = '" +
        join.severity + "'";
    stmts_.push_back(join);
  }

  void Round(Harness* h) override {
    for (const Stmt& st : stmts_) {
      OpClass* cls = st.kind == Kind::kOverlaps ? &h->lead
                     : st.kind == Kind::kLookup ? &h->second
                                                : nullptr;
      std::optional<OngoingRelation> kept;
      h->Op(cls, [&](size_t* rows) -> Status {
        auto r = Select(h, session_.get(), catalog_, st.sql, &ctx_);
        if (!r.ok()) return r.status();
        *rows = r->size();
        if (h->checking) kept = std::move(*r);
        return Status::OK();
      });
      if (kept.has_value()) {
        h->Untimed([&] {
          for (TimePoint rt : rts_) {
            CheckSqlAt(h, catalog_, st.sql, *kept, rt, Expected(st, rt));
          }
        });
      }
    }
  }

 private:
  enum class Kind { kOverlaps, kContains, kLookup, kJoin };
  struct Stmt {
    Kind kind = Kind::kLookup;
    std::string sql;
    TimePoint w1 = 0, w2 = 0;  // OVERLAPS window; CONTAINS point in w1
    int64_t id = 0;            // lookup key
    std::string severity;      // join filter
  };

  void Register(const std::string& name, const OngoingRelation& r) {
    auto seq = catalog_.RegisterTable(name, r);
    if (!seq.ok()) {
      std::fprintf(stderr, "RegisterTable %s: %s\n", name.c_str(),
                   seq.status().ToString().c_str());
      std::exit(2);
    }
  }

  Rows Expected(const Stmt& st, TimePoint rt) const {
    Rows out;
    switch (st.kind) {
      case Kind::kOverlaps:
      case Kind::kContains:
        for (const AssignRow& a : data_.a) {
          const TimePoint e = a.vt.EndAt(rt);
          const bool hit = st.kind == Kind::kOverlaps
                               ? OverlapsAt(a.vt.start, e, st.w1, st.w2)
                               : ContainsAt(a.vt.start, e, st.w1);
          if (hit) out.push_back(AssignKey(a, rt));
        }
        break;
      case Kind::kLookup:
        for (const BugRow& b : data_.b) {
          if (b.id != st.id) continue;
          RowKey key;
          out.push_back(AppendBug(key, b, rt).Take());
        }
        break;
      case Kind::kJoin: {
        std::unordered_multimap<int64_t, const SeverityRow*> by_id;
        for (const SeverityRow& s : data_.s) {
          if (s.severity == st.severity) by_id.emplace(s.id, &s);
        }
        for (const AssignRow& a : data_.a) {
          const TimePoint ea = a.vt.EndAt(rt);
          auto [lo, hi] = by_id.equal_range(a.id);
          for (auto it = lo; it != hi; ++it) {
            const SeverityRow& s = *it->second;
            const TimePoint es = s.vt.EndAt(rt);
            if (!OverlapsAt(a.vt.start, ea, s.vt.start, es)) continue;
            out.push_back(RowKey().Int(a.id).Str(a.email).Iv(a.vt.start, ea)
                              .Str(s.severity).Iv(s.vt.start, es).Take());
          }
        }
        break;
      }
    }
    return out;
  }

  MozillaData data_;
  server::Catalog catalog_;
  std::unique_ptr<server::Session> session_;
  QueryContext ctx_;
  std::vector<Stmt> stmts_;
  std::vector<TimePoint> rts_;
};

// --- serve_write -----------------------------------------------------------

class ServeWrite final : public Workload {
 public:
  void Setup(uint64_t seed, Harness* /*h*/) override {
    datasets::MozillaOptions options;  // 20 000 bugs; only A is served
    options.description_bytes = 2;
    options.seed = seed;
    datasets::MozillaBugs generated = datasets::GenerateMozillaBugs(options);
    MozillaData d = DecodeMozilla(generated);
    history_end_ = d.history_end;
    initial_ = std::move(d.a);
    pristine_ = std::move(generated.bug_assignment);
    rts_ = SampleRts(d.history_start, d.history_end, seed);
    Rng rand(seed ^ 0xd31);
    for (int g = 0; g < kGroups; ++g) {
      groups_.push_back({options.num_bugs + g,
                         initial_[static_cast<size_t>(rand.Uniform(0, static_cast<int64_t>(initial_.size()) - 1))].id,
                         initial_[static_cast<size_t>(rand.Uniform(0, static_cast<int64_t>(initial_.size()) - 1))].id});
    }
    Reset();
  }

  void Round(Harness* h) override {
    if (dirty_) h->Untimed([&] { Reset(); });
    dirty_ = true;
    TimePoint tc = history_end_;
    for (int g = 0; g < kGroups; ++g) {
      const Group& grp = groups_[static_cast<size_t>(g)];
      const std::string gs = std::to_string(g);
      // INSERT, then read it back.
      ++tc;
      const std::string email = "new" + gs + "@mozilla.org";
      Write(h, "INSERT INTO A VALUES (" + std::to_string(grp.insert_id) + ", '" +
                   email + "', PERIOD ['" + DateLiteral(tc) + "', NOW))",
            -1, [&] { model_.push_back({grp.insert_id, email, PlainVt::SinceNow(tc)}); });
      Lookup(h, grp.insert_id);
      // Torp DELETE at tc, then read the closed rows back.
      ++tc;
      const TimePoint del_tc = tc;
      Write(h, "DELETE FROM A WHERE ID = " + std::to_string(grp.delete_id) +
                   " AT DATE '" + DateLiteral(tc) + "'",
            grp.delete_id, [&] {
              ModelClose(&model_, del_tc, [&](const AssignRow& a) {
                return a.id == grp.delete_id;
              });
            });
      Lookup(h, grp.delete_id);
      // Torp UPDATE at tc: close the old versions, insert new ones.
      ++tc;
      const TimePoint upd_tc = tc;
      const std::string new_email = "upd" + gs + "@mozilla.org";
      Write(h, "UPDATE A SET Email = '" + new_email + "' WHERE ID = " +
                   std::to_string(grp.update_id) + " AT DATE '" +
                   DateLiteral(tc) + "'",
            grp.update_id, [&] {
              const size_t n = ModelClose(&model_, upd_tc, [&](const AssignRow& a) {
                return a.id == grp.update_id;
              });
              for (size_t i = 0; i < n; ++i) {
                model_.push_back({grp.update_id, new_email, PlainVt::SinceNow(upd_tc)});
              }
            });
      Lookup(h, grp.update_id);
    }
    if (h->checking) h->Untimed([&] { CheckTable(h); });
  }

  void Finish(Harness* h) override {
    CheckTable(h);
    if (h->tracer.on()) {
      auto versions = catalog_->MasterVersionCount("A");
      if (versions.ok()) {
        h->layer_counts["server.master_versions"] = static_cast<double>(*versions);
      }
    }
  }

 private:
  static constexpr int kGroups = 10;
  struct Group {
    int64_t insert_id, delete_id, update_id;
  };

  void Reset() {
    catalog_ = std::make_unique<server::Catalog>();
    auto seq = catalog_->RegisterTable("A", pristine_);
    if (!seq.ok()) {
      std::fprintf(stderr, "RegisterTable A: %s\n", seq.status().ToString().c_str());
      std::exit(2);
    }
    last_seq_ = *seq;
    session_ = std::make_unique<server::Session>(1, catalog_.get(),
                                                 server::SessionOptions{});
    model_ = initial_;
  }

  // One DML statement as a timed commit; then, untimed: the sequence
  // rose by exactly one, a newly pinned snapshot shows it, the affected
  // row count matches the model's rows of `target_id`, and the model
  // applies the same write.
  void Write(Harness* h, const std::string& text, int64_t target_id,
             const std::function<void()>& apply_model) {
    uint64_t seq = 0;
    size_t affected = 0;
    bool ok = false;
    h->Op(&h->lead, [&](size_t* rows) -> Status {
      ONGOINGDB_RETURN_NOT_OK(Dml(h, text, &seq, &affected));
      *rows = affected;
      ok = true;
      return Status::OK();
    });
    h->Untimed([&] {
      if (!ok) return;
      h->checker.Expect(text, DiffCommitSequence({seq}, last_seq_ + 1));
      h->checker.Expect(text + ", newly pinned snapshot",
                        DiffCommitSequence({catalog_->PinSnapshot().commit_seq()}, seq));
      size_t expected_affected = 1;  // an INSERT (target_id < 0)
      if (target_id >= 0) {
        expected_affected = 0;
        for (const AssignRow& a : model_) expected_affected += a.id == target_id;
      }
      if (affected != expected_affected) {
        h->checker.Fail(text + ": " + std::to_string(affected) +
                        " rows affected, model expects " +
                        std::to_string(expected_affected));
      }
      last_seq_ = seq;
      apply_model();
    });
  }

  Status Dml(Harness* h, const std::string& text, uint64_t* seq, size_t* affected) {
    if (!h->tracer.on()) {
      ONGOINGDB_ASSIGN_OR_RETURN(server::ExecResult r, session_->Execute(text));
      *seq = r.snapshot_seq;
      *affected = r.result.affected;
      return Status::OK();
    }
    // The DML path of Session::Execute, one span per call.
    Tracer* tr = &h->tracer;
    server::Snapshot snap;
    sql::Catalog view;
    {
      SpanScope s(tr, "server.pin");
      snap = catalog_->PinSnapshot();
      view = snap.View();
    }
    sql::ParsedStatement parsed;
    {
      SpanScope s(tr, "sql.parse");
      ONGOINGDB_ASSIGN_OR_RETURN(parsed, sql::ParseStatement(text, view));
    }
    ONGOINGDB_ASSIGN_OR_RETURN(auto relation, snap.Get(parsed.table));
    SpanScope s(tr, "server.commit");
    switch (parsed.kind) {
      case sql::StatementKind::kInsert: {
        ONGOINGDB_ASSIGN_OR_RETURN(*seq, catalog_->Insert(parsed.table, parsed.values));
        *affected = 1;
        return Status::OK();
      }
      case sql::StatementKind::kDelete: {
        ONGOINGDB_ASSIGN_OR_RETURN(
            *seq, catalog_->TemporalDeleteWhere(
                      parsed.table, parsed.tc,
                      sql::MakeModificationFilter(parsed.predicate, relation->schema()),
                      affected));
        return Status::OK();
      }
      case sql::StatementKind::kUpdate: {
        ONGOINGDB_ASSIGN_OR_RETURN(
            *seq, catalog_->TemporalUpdateWhere(
                      parsed.table, parsed.tc,
                      sql::MakeModificationFilter(parsed.predicate, relation->schema()),
                      sql::MakeAssignmentUpdater(parsed.assignments), affected));
        return Status::OK();
      }
      default:
        return Status::InvalidArgument("not a DML statement: " + text);
    }
  }

  // Read-your-write: the rows of `id` right after the write, checked
  // against the model at every sampled reference time.
  void Lookup(Harness* h, int64_t id) {
    const std::string text = "SELECT * FROM A WHERE ID = " + std::to_string(id);
    std::optional<OngoingRelation> kept;
    h->Op(&h->second, [&](size_t* rows) -> Status {
      auto r = Select(h, session_.get(), *catalog_, text, &ctx_);
      if (!r.ok()) return r.status();
      *rows = r->size();
      kept = std::move(*r);
      return Status::OK();
    });
    h->Untimed([&] {
      if (!kept.has_value()) return;
      for (TimePoint rt : rts_) {
        Rows expected;
        for (const AssignRow& a : model_) {
          if (a.id == id) expected.push_back(AssignKey(a, rt));
        }
        Rows bound = EncodeAt(*kept, rt);
        h->checker.Expect(text + ", read-your-write at " + RtLabel(rt),
                          DiffMultisets(&bound, &expected));
      }
    });
  }

  // The whole table against the model, through SQL and at rt.
  void CheckTable(Harness* h) {
    const std::string text = "SELECT * FROM A";
    auto all = session_->Execute(text);
    if (!all.ok() || !all->result.relation.has_value()) {
      h->checker.Fail(text + " failed");
      return;
    }
    for (TimePoint rt : rts_) {
      Rows expected;
      for (const AssignRow& a : model_) expected.push_back(AssignKey(a, rt));
      CheckSqlAt(h, *catalog_, text, *all->result.relation, rt, std::move(expected));
    }
  }

  TimePoint history_end_ = 0;
  std::vector<AssignRow> initial_, model_;
  OngoingRelation pristine_;
  std::vector<TimePoint> rts_;
  std::vector<Group> groups_;
  std::unique_ptr<server::Catalog> catalog_;
  std::unique_ptr<server::Session> session_;
  QueryContext ctx_;
  uint64_t last_seq_ = 0;
  bool dirty_ = false;
};

// --- ongoing_views ---------------------------------------------------------

class OngoingViews final : public Workload {
 public:
  void Setup(uint64_t seed, Harness* h) override {
    // Dsc-shaped bases (the paper's Table III: 20 % ongoing [a, now)),
    // 10 000 rows and 1000 join keys each.
    datasets::SyntheticOptions options;
    options.cardinality = kBaseRows;
    options.ongoing_fraction = 0.20;
    options.key_cardinality = 1000;
    options.seed = 2 * seed;
    pristine_l_ = datasets::GenerateSynthetic(options);
    options.seed = 2 * seed + 1;
    pristine_r_ = datasets::GenerateSynthetic(options);
    initial_l_ = DecodeKeyed(pristine_l_);
    initial_r_ = DecodeKeyed(pristine_r_);
    history_end_ = options.history_end;
    history_start_ = history_end_ - options.history_years * kYear;
    window_ = {history_end_ - kYear, history_end_ - kYear / 2};
    filter_plan_ = ProjectPlan(
        Filter(Scan(&l_, "L"),
               OverlapsExpr(Col("VT"), Lit(OngoingInterval::Fixed(window_.first,
                                                                  window_.second)))),
        {"ID", "K", "VT"});
    join_plan_ = Join(Scan(&l_, "L"), Scan(&r_, "R"),
                      And(Eq(Col("L.K"), Col("R.K")),
                          OverlapsExpr(Col("L.VT"), Col("R.VT"))),
                      "L", "R");
    Rng rand(seed ^ 0xb47c);
    PlanBatches(options, &rand);
    rts_ = SampleRts(history_start_, history_end_, seed);
    Reset(h);
  }

  void Round(Harness* h) override {
    if (dirty_) h->Untimed([&] { Reset(h); });
    dirty_ = true;
    for (size_t b = 0; b < batches_.size(); ++b) {
      const Batch& batch = batches_[b];
      // The smallest batch is the one the paper's promise is about: a
      // few modifications, then a cheap refresh and binds.
      const bool reported = b == 0;
      h->Op(nullptr, [&](size_t* rows) -> Status {
        ONGOINGDB_RETURN_NOT_OK(ApplyBatch(h, batch, &l_, batch.l));
        ONGOINGDB_RETURN_NOT_OK(ApplyBatch(h, batch, &r_, batch.r));
        *rows = l_.size() + r_.size();
        return Status::OK();
      });
      h->Untimed([&] {
        ApplyModel(batch, batch.l, &model_l_);
        ApplyModel(batch, batch.r, &model_r_);
      });
      h->Op(nullptr, [&](size_t* rows) -> Status {
        ONGOINGDB_RETURN_NOT_OK(Refresh(h, &*filter_view_));
        *rows = filter_view_->ongoing_result().size();
        return Status::OK();
      });
      h->Op(reported ? &h->lead : nullptr, [&](size_t* rows) -> Status {
        ONGOINGDB_RETURN_NOT_OK(Refresh(h, &*join_view_));
        *rows = join_view_->ongoing_result().size();
        return Status::OK();
      });
      // The views answer by bind alone at one reference time in the
      // history, at the batch's commit time, and one in the future.
      const TimePoint rts[] = {history_start_ + (history_end_ - history_start_) / 3,
                               batch.tc, batch.tc + kYear};
      for (TimePoint rt : rts) {
        h->Op(nullptr, [&](size_t* rows) -> Status {
          *rows = Instantiate(h, *filter_view_, rt).size();
          return Status::OK();
        });
        h->Op(reported && rt == batch.tc ? &h->second : nullptr,
              [&](size_t* rows) -> Status {
                *rows = Instantiate(h, *join_view_, rt).size();
                return Status::OK();
              });
      }
      if (h->tracer.on() && reported) {
        // The paper's re-evaluation baseline for the lead refresh.
        h->Untimed([&] {
          h->tracer.SetClass(SpanClass::kLead);
          {
            SpanScope s(&h->tracer, "baselines.clifford");
            auto r = ExecuteAtReferenceTime(join_plan_, batch.tc);
            if (!r.ok()) h->checker.Fail("ExecuteAtReferenceTime: " + r.status().ToString());
          }
          h->tracer.SetClass(SpanClass::kOther);
        });
      }
      if (h->checking) {
        h->Untimed([&] { CheckViews(h, rts_[b % rts_.size()]); });
      }
    }
    if (h->tracer.on()) {
      // The recompute reference on the same, now fresh, view.
      h->Untimed([&] {
        SpanScope s(&h->tracer, "view.full_refresh");
        Status st = join_view_->RefreshFull();
        if (!st.ok()) h->checker.Fail("RefreshFull: " + st.ToString());
      });
    }
  }

  void Finish(Harness* h) override {
    for (TimePoint rt : rts_) CheckViews(h, rt);
  }

 private:
  static constexpr int64_t kBaseRows = 10000;
  // One write batch: inserts (half ongoing from tc on, half late
  // historical rows) and Torp closes at tc.
  struct Side {
    std::vector<KeyedRow> inserts;  // vt.start == tc and NOW end: TemporalInsert
    std::unordered_set<int64_t> closes;
  };
  struct Batch {
    TimePoint tc;
    Side l, r;
  };

  void PlanBatches(const datasets::SyntheticOptions& options, Rng* rand) {
    // One batch at each size the repo's view_refresh bench sweeps below
    // 50 %: 0.1, 1 and 10 % of a base, in modifications.
    static const int64_t kPerThousand[] = {1, 10, 100};
    // Draws are stratified: the j-th of n picks falls in the j-th of n
    // equal slices of its range, so what a batch costs varies little
    // with the seed. Closes pick ongoing rows by their start.
    auto stratified = [&](int64_t j, int64_t n, int64_t lo, int64_t hi) {
      const double u = rand->UniformReal();
      return lo + static_cast<int64_t>((static_cast<double>(j) + u) *
                                       static_cast<double>(hi - lo) /
                                       static_cast<double>(n));
    };
    auto ongoing_by_start = [](const std::vector<KeyedRow>& rows) {
      std::vector<std::pair<TimePoint, int64_t>> ongoing;
      for (const KeyedRow& k : rows) {
        if (k.vt.end_hi == kMaxInfinity) ongoing.emplace_back(k.vt.start, k.id);
      }
      std::sort(ongoing.begin(), ongoing.end());
      std::vector<int64_t> ids;
      for (const auto& [start, id] : ongoing) ids.push_back(id);
      return ids;
    };
    const std::vector<int64_t> ongoing_l = ongoing_by_start(initial_l_);
    const std::vector<int64_t> ongoing_r = ongoing_by_start(initial_r_);
    int64_t next_id = kBaseRows;
    for (size_t b = 0; b < std::size(kPerThousand); ++b) {
      Batch batch;
      batch.tc = history_end_ + 1 + static_cast<TimePoint>(b) * 7;
      const int64_t mods = kBaseRows * kPerThousand[b] / 1000;
      // Modification i: an ongoing insert [tc, now) when i % 4 == 0, a
      // late historical insert when i % 4 == 2, a close otherwise. The
      // smaller batches write the join's outer side L only, as the
      // view_refresh bench does; the largest also writes the inner side
      // R (a quarter of its modifications, all closes).
      const bool large = b + 1 == std::size(kPerThousand);
      auto on_left = [&](int64_t i) { return !large || i % 4 != 3; };
      int64_t historical = 0, closes_l = 0, closes_r = 0;
      for (int64_t i = 0; i < mods; ++i) {
        if (i % 4 == 2) ++historical;
        if (i % 2 == 1) ++(on_left(i) ? closes_l : closes_r);
      }
      int64_t j_historical = 0, j_l = 0, j_r = 0;
      for (int64_t i = 0; i < mods; ++i) {
        const bool left = on_left(i);
        Side& side = left ? batch.l : batch.r;
        if (i % 2 == 0) {
          KeyedRow row{next_id++, rand->Uniform(0, options.key_cardinality - 1), {}};
          if (i % 4 == 0) {
            row.vt = PlainVt::SinceNow(batch.tc);
          } else {
            const TimePoint s =
                stratified(j_historical++, historical, history_start_, history_end_ - 1);
            row.vt = PlainVt::Fixed(s, s + rand->Uniform(1, options.max_duration_days));
          }
          side.inserts.push_back(row);
        } else {
          const std::vector<int64_t>& pool = left ? ongoing_l : ongoing_r;
          const int64_t j = left ? j_l++ : j_r++;
          side.closes.insert(pool[static_cast<size_t>(stratified(
              j, left ? closes_l : closes_r, 0, static_cast<int64_t>(pool.size())))]);
        }
      }
      batches_.push_back(std::move(batch));
    }
  }

  void Reset(Harness* h) {
    l_ = pristine_l_;
    r_ = pristine_r_;
    l_.EnableModificationLog();
    r_.EnableModificationLog();
    model_l_ = initial_l_;
    model_r_ = initial_r_;
    auto f = MaterializedView::Create(filter_plan_);
    auto j = MaterializedView::Create(join_plan_);
    if (!f.ok() || !j.ok()) {
      h->checker.Fail("MaterializedView::Create failed");
      std::fprintf(stderr, "MaterializedView::Create failed\n");
      std::exit(2);
    }
    filter_view_.emplace(std::move(*f));
    join_view_.emplace(std::move(*j));
  }

  Status ApplyBatch(Harness* h, const Batch& batch, OngoingRelation* r,
                    const Side& side) {
    for (const KeyedRow& row : side.inserts) {
      SpanScope s(&h->tracer, "relation.write");
      std::vector<Value> values = {Value::Int64(row.id), Value::Int64(row.k),
                                   Value::Ongoing(row.vt.ToEngine())};
      if (row.vt.end_hi == kMaxInfinity) {
        ONGOINGDB_RETURN_NOT_OK(TemporalInsert(r, std::move(values), 2, batch.tc));
      } else {
        ONGOINGDB_RETURN_NOT_OK(r->Insert(std::move(values)));
      }
    }
    if (!side.closes.empty()) {
      SpanScope s(&h->tracer, "relation.write");
      ONGOINGDB_RETURN_NOT_OK(
          TemporalDelete(r, 2, batch.tc, [&](const Tuple& t) {
            return side.closes.count(t.value(0).AsInt64()) > 0;
          }).status());
    }
    return Status::OK();
  }

  static void ApplyModel(const Batch& batch, const Side& side,
                         std::vector<KeyedRow>* model) {
    for (const KeyedRow& row : side.inserts) model->push_back(row);
    ModelClose(model, batch.tc, [&](const KeyedRow& k) {
      return side.closes.count(k.id) > 0;
    });
  }

  Status Refresh(Harness* h, MaterializedView* view) {
    if (!h->tracer.on()) return view->Refresh();
    const int64_t t0 = NowNs();
    Status st;
    {
      SpanScope s(&h->tracer, "view.refresh");
      st = view->Refresh();
    }
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    if (view == &*join_view_) {
      switch (view->last_refresh_mode()) {
        case RefreshMode::kDelta:
          h->layer_samples["view.refresh_delta_ms"].push_back(ms);
          h->layer_counts["view.delta_refreshes"] += 1;
          break;
        case RefreshMode::kRecompute:
          h->layer_samples["view.refresh_recompute_ms"].push_back(ms);
          h->layer_counts["view.recompute_refreshes"] += 1;
          break;
        case RefreshMode::kNoop:
          break;
      }
    }
    return st;
  }

  static OngoingRelation Instantiate(Harness* h, const MaterializedView& view,
                                     TimePoint rt) {
    SpanScope s(&h->tracer, "core.instantiate");
    return view.InstantiateAt(rt);
  }

  // Each view, delta-refreshed, against a fresh Execute of its plan, the
  // Clifford evaluation at rt, and the harness's own evaluation at rt.
  void CheckViews(Harness* h, TimePoint rt) {
    Rows filter_expected;
    for (const KeyedRow& k : model_l_) {
      const TimePoint e = k.vt.EndAt(rt);
      if (OverlapsAt(k.vt.start, e, window_.first, window_.second)) {
        filter_expected.push_back(RowKey().Int(k.id).Int(k.k).Iv(k.vt.start, e).Take());
      }
    }
    Rows join_expected;
    std::unordered_multimap<int64_t, const KeyedRow*> by_key;
    for (const KeyedRow& k : model_r_) by_key.emplace(k.k, &k);
    for (const KeyedRow& l : model_l_) {
      const TimePoint el = l.vt.EndAt(rt);
      auto [lo, hi] = by_key.equal_range(l.k);
      for (auto it = lo; it != hi; ++it) {
        const KeyedRow& r = *it->second;
        const TimePoint er = r.vt.EndAt(rt);
        if (!OverlapsAt(l.vt.start, el, r.vt.start, er)) continue;
        join_expected.push_back(RowKey().Int(l.id).Int(l.k).Iv(l.vt.start, el)
                                    .Int(r.id).Int(r.k).Iv(r.vt.start, er).Take());
      }
    }
    const std::pair<const char*, std::pair<MaterializedView*, const PlanPtr*>> views[] = {
        {"filter view", {&*filter_view_, &filter_plan_}},
        {"join view", {&*join_view_, &join_plan_}}};
    Rows* expected[] = {&filter_expected, &join_expected};
    for (size_t i = 0; i < 2; ++i) {
      const std::string label = views[i].first;
      const MaterializedView& view = *views[i].second.first;
      const PlanPtr& plan = *views[i].second.second;
      auto fresh = Execute(plan);
      if (!fresh.ok()) {
        h->checker.Fail(label + ": fresh Execute failed: " + fresh.status().ToString());
        continue;
      }
      Rows refreshed = EncodeAt(view.ongoing_result(), rt);
      Rows recomputed = EncodeAt(*fresh, rt);
      h->checker.Expect(label + " refreshed vs fresh Execute at " + RtLabel(rt),
                        DiffMultisets(&refreshed, &recomputed));
      CheckAt(h, label, view.ongoing_result(), plan, rt, *expected[i]);
    }
  }

  TimePoint history_start_ = 0, history_end_ = 0;
  std::pair<TimePoint, TimePoint> window_;
  std::vector<KeyedRow> initial_l_, initial_r_, model_l_, model_r_;
  OngoingRelation pristine_l_, pristine_r_, l_, r_;
  PlanPtr filter_plan_, join_plan_;
  std::optional<MaterializedView> filter_view_, join_view_;
  std::vector<Batch> batches_;
  std::vector<TimePoint> rts_;
  bool dirty_ = false;
};

// --- paper_joins -----------------------------------------------------------

class PaperJoins final : public Workload {
 public:
  // Two workers spread a query's time widely from run to run of the same
  // plan, so its lower decile is a lucky draw; the median holds still.
  double TimingQuantile() const override { return 0.5; }

  void Setup(uint64_t seed, Harness* /*h*/) override {
    // Q^join_ovlp over two Dsc relations (the paper's Table III: 20 %
    // ongoing, 1000 join keys), 20 000 rows each.
    datasets::SyntheticOptions dsc;
    dsc.cardinality = 20000;
    dsc.ongoing_fraction = 0.20;
    dsc.seed = 2 * seed;
    rel_l_ = datasets::GenerateSynthetic(dsc);
    dsc.seed = 2 * seed + 1;
    rel_r_ = datasets::GenerateSynthetic(dsc);
    dsc_l_ = DecodeKeyed(rel_l_);
    dsc_r_ = DecodeKeyed(rel_r_);
    dsc_rts_ = SampleRts(dsc.history_end - dsc.history_years * kYear, dsc.history_end,
                         seed);
    join_plan_ = Join(Scan(&rel_l_, "R"), Scan(&rel_r_, "S"),
                      And(Eq(Col("L.K"), Col("R.K")),
                          Allen(AllenOp::kOverlaps, Col("L.VT"), Col("R.VT"))),
                      "L", "R");

    // QC over the MozillaBugs instance the repo's Fig. 13 bench joins:
    // 2500 bugs at the generator's default seed, whatever --seed is. The
    // optimizer's kAuto choice for QC's last join flips between the
    // index nested loop and the hash join with the data seed, at 5-8x
    // the time; on a seed-drawn instance the metric would report which
    // plan each seed happened to get. This instance gets the index
    // nested loop.
    datasets::MozillaBugs generated = datasets::GenerateMozillaBugs(kQcBugs);
    moz_ = DecodeMozilla(generated);
    bugs_ = std::move(generated.bug_info);
    assign_ = std::move(generated.bug_assignment);
    severity_ = std::move(generated.bug_severity);
    moz_rts_ = SampleRts(moz_.history_start, moz_.history_end, seed);
    // QC: A |x|_{A.ID = S.ID ^ A.VT overlaps S.VT ^ Severity = 'major'} S
    //       |x|_{A.ID = B.ID} B
    //       |x|_{same product, component, OS ^ A.VT overlaps B2.VT} B2
    PlanPtr major = Filter(Scan(&severity_, "S"), Eq(Col("Severity"), Lit("major")));
    PlanPtr a_s = Join(Scan(&assign_, "A"), major,
                       And(Eq(Col("A.ID"), Col("S.ID")),
                           OverlapsExpr(Col("A.VT"), Col("S.VT"))),
                       "A", "S");
    PlanPtr with_b = Join(a_s, Scan(&bugs_, "B"), Eq(Col("A.ID"), Col("B.ID")), "A", "B");
    qc_plan_ = Join(with_b, Scan(&bugs_, "B2"),
                    And(And(Eq(Col("B.Product"), Col("B2.Product")),
                            And(Eq(Col("B.Component"), Col("B2.Component")),
                                Eq(Col("B.OS"), Col("B2.OS")))),
                        OverlapsExpr(Col("A.VT"), Col("B2.VT"))),
                    "B", "B2");
  }

  void Round(Harness* h) override {
    RunJoin(h, &h->lead, join_plan_, "Q^join_ovlp", dsc_rts_,
            [&](TimePoint rt) { return ExpectedJoin(rt); });
    RunJoin(h, &h->second, qc_plan_, "QC", moz_rts_,
            [&](TimePoint rt) { return ExpectedQc(rt); });
  }

 private:
  static constexpr size_t kWorkers = 2;
  static constexpr int64_t kQcBugs = 2500;

  void RunJoin(Harness* h, OpClass* cls, const PlanPtr& plan,
               const std::string& label, const std::vector<TimePoint>& rts,
               const std::function<Rows(TimePoint)>& expected) {
    ParallelOptions par;
    par.workers = kWorkers;
    std::optional<OngoingRelation> kept;
    int64_t cpu0 = 0;
    h->Op(cls, [&](size_t* rows) -> Status {
      if (h->tracer.on()) cpu0 = ProcessCpuNs();
      std::optional<SpanScope> span;
      if (h->tracer.on()) span.emplace(&h->tracer, "query.parallel");
      auto r = h->tracer.on() ? TracedPlan(h, plan, par, nullptr) : Execute(plan, par);
      if (!r.ok()) return r.status();
      *rows = r->size();
      if (h->checking) kept = std::move(*r);
      return Status::OK();
    });
    if (h->tracer.on()) {
      const double cpu_ms = static_cast<double>(ProcessCpuNs() - cpu0) / 1e6;
      h->Untimed([&] {
        // The reference calls count in the class of the query they
        // repeat.
        h->tracer.SetClass(h->ClassOf(cls));
        if (cls == &h->lead) h->layer_samples["process.cpu_ms_per_query"].push_back(cpu_ms);
        {
          SpanScope s(&h->tracer, "query.serial");
          auto serial = Execute(plan);
          if (!serial.ok()) h->checker.Fail(label + " serial: " + serial.status().ToString());
        }
        {
          SpanScope s(&h->tracer, "baselines.clifford");
          auto at_rt = ExecuteAtReferenceTime(plan, rts[1]);
          if (!at_rt.ok()) h->checker.Fail(label + " at rt: " + at_rt.status().ToString());
        }
        h->tracer.SetClass(SpanClass::kOther);
      });
    }
    if (!kept.has_value()) return;
    h->Untimed([&] {
      auto serial = Execute(plan);
      if (!serial.ok()) {
        h->checker.Fail(label + " serial: " + serial.status().ToString());
        return;
      }
      if (serial->size() != kept->size()) {
        h->checker.Fail(label + ": parallel result has " + std::to_string(kept->size()) +
                        " tuples, serial " + std::to_string(serial->size()));
      }
      for (TimePoint rt : rts) {
        Rows parallel_rows = EncodeAt(*kept, rt);
        Rows serial_rows = EncodeAt(*serial, rt);
        h->checker.Expect(label + " parallel vs serial at " + RtLabel(rt),
                          DiffMultisets(&parallel_rows, &serial_rows));
        CheckAt(h, label, *kept, plan, rt, expected(rt));
      }
    });
  }

  Rows ExpectedJoin(TimePoint rt) const {
    Rows out;
    std::unordered_multimap<int64_t, const KeyedRow*> by_key;
    for (const KeyedRow& k : dsc_r_) by_key.emplace(k.k, &k);
    for (const KeyedRow& l : dsc_l_) {
      const TimePoint el = l.vt.EndAt(rt);
      auto [lo, hi] = by_key.equal_range(l.k);
      for (auto it = lo; it != hi; ++it) {
        const KeyedRow& r = *it->second;
        const TimePoint er = r.vt.EndAt(rt);
        if (!OverlapsAt(l.vt.start, el, r.vt.start, er)) continue;
        out.push_back(RowKey().Int(l.id).Int(l.k).Iv(l.vt.start, el)
                          .Int(r.id).Int(r.k).Iv(r.vt.start, er).Take());
      }
    }
    return out;
  }

  Rows ExpectedQc(TimePoint rt) const {
    Rows out;
    std::unordered_multimap<int64_t, const SeverityRow*> major;
    for (const SeverityRow& s : moz_.s) {
      if (s.severity == "major") major.emplace(s.id, &s);
    }
    std::unordered_map<int64_t, const BugRow*> bug_by_id;
    std::map<std::tuple<std::string, std::string, std::string>,
             std::vector<const BugRow*>> similar;
    for (const BugRow& b : moz_.b) {
      bug_by_id.emplace(b.id, &b);
      similar[{b.product, b.component, b.os}].push_back(&b);
    }
    for (const AssignRow& a : moz_.a) {
      const TimePoint ea = a.vt.EndAt(rt);
      auto [lo, hi] = major.equal_range(a.id);
      for (auto it = lo; it != hi; ++it) {
        const SeverityRow& s = *it->second;
        const TimePoint es = s.vt.EndAt(rt);
        if (!OverlapsAt(a.vt.start, ea, s.vt.start, es)) continue;
        const BugRow& b = *bug_by_id.at(a.id);
        for (const BugRow* b2 : similar.at({b.product, b.component, b.os})) {
          if (!OverlapsAt(a.vt.start, ea, b2->vt.start, b2->vt.EndAt(rt))) continue;
          RowKey key;
          key.Int(a.id).Str(a.email).Iv(a.vt.start, ea)
              .Int(s.id).Str(s.severity).Iv(s.vt.start, es);
          AppendBug(key, b, rt);
          AppendBug(key, *b2, rt);
          out.push_back(key.Take());
        }
      }
    }
    return out;
  }

  std::vector<KeyedRow> dsc_l_, dsc_r_;
  OngoingRelation rel_l_, rel_r_;
  std::vector<TimePoint> dsc_rts_, moz_rts_;
  PlanPtr join_plan_, qc_plan_;
  MozillaData moz_;
  OngoingRelation bugs_, assign_, severity_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "serve_read") return std::make_unique<ServeRead>();
  if (name == "serve_write") return std::make_unique<ServeWrite>();
  if (name == "ongoing_views") return std::make_unique<OngoingViews>();
  if (name == "paper_joins") return std::make_unique<PaperJoins>();
  return nullptr;
}

}  // namespace perfbench
