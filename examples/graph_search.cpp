// The paper's Example 1, end to end: Facebook Graph Search.
//
//   "Find me all restaurants in nyc which I have not been to, but in which
//    my friends have dined in May 2015."
//
//   Q0(cid) = Q1(cid) - Q2(cid)
//
// Q0 is NOT covered by A0 (Q2 can't be answered boundedly), but it is
// boundedly evaluable: the engine rewrites it to the A0-equivalent
// Q0' = Q1 - Q3 (Example 1), generates the canonical bounded plan of
// Example 2, and answers it by accessing a bounded number of tuples no
// matter how large the dataset grows.
//
// Build & run:  ./build/examples/graph_search

#include <iostream>

#include "baseline/eval.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/plan2sql.h"
#include "ra/builder.h"
#include "ra/printer.h"

using namespace bqe;

namespace {

/// Builds the friend/dine/cafe database with p0's neighborhood plus `extra`
/// unrelated users (to demonstrate scale independence).
Database MakeData(int extra_users) {
  Database db;
  Status st = db.CreateTable(RelationSchema(
      "friend", {{"pid", ValueType::kString}, {"fid", ValueType::kString}}));
  st = db.CreateTable(RelationSchema("dine", {{"pid", ValueType::kString},
                                              {"cid", ValueType::kString},
                                              {"month", ValueType::kInt},
                                              {"year", ValueType::kInt}}));
  st = db.CreateTable(RelationSchema(
      "cafe", {{"cid", ValueType::kString}, {"city", ValueType::kString}}));

  auto S = [](const std::string& s) { return Value::Str(s); };
  auto I = [](int64_t i) { return Value::Int(i); };
  st = db.Insert("friend", {S("p0"), S("f1")});
  st = db.Insert("friend", {S("p0"), S("f2")});
  st = db.Insert("dine", {S("f1"), S("c1"), I(5), I(2015)});
  st = db.Insert("dine", {S("f1"), S("c2"), I(5), I(2015)});
  st = db.Insert("dine", {S("f2"), S("c2"), I(5), I(2015)});
  st = db.Insert("dine", {S("p0"), S("c1"), I(1), I(2014)});
  st = db.Insert("cafe", {S("c1"), S("nyc")});
  st = db.Insert("cafe", {S("c2"), S("nyc")});

  Rng rng(7);
  for (int i = 0; i < extra_users; ++i) {
    std::string pid = "user_" + std::to_string(i);
    std::string cid = "cafe_" + std::to_string(i % 500);
    st = db.Insert("friend", {S(pid), S("user_" + std::to_string((i + 1) %
                                                                 extra_users))});
    st = db.Insert("dine",
                   {S(pid), S(cid), I(rng.UniformInt(1, 12)),
                    I(rng.UniformInt(2010, 2015))});
    if (i < 500) {
      st = db.Insert("cafe", {S(cid), S(i % 3 == 0 ? "nyc" : "sf")});
    }
  }
  return db;
}

/// Q1: restaurants in nyc where p0's friends dined in May 2015.
RaExprPtr MakeQ1() {
  return Project(
      Select(Product(Product(Rel("friend"), Rel("dine")), Rel("cafe")),
             {EqC(A("friend", "pid"), Value::Str("p0")),
              EqA(A("friend", "fid"), A("dine", "pid")),
              EqC(A("dine", "month"), Value::Int(5)),
              EqC(A("dine", "year"), Value::Int(2015)),
              EqA(A("dine", "cid"), A("cafe", "cid")),
              EqC(A("cafe", "city"), Value::Str("nyc"))}),
      {A("cafe", "cid")});
}

/// Q2: restaurants p0 has dined in.
RaExprPtr MakeQ2() {
  return Project(Select(RelAs("dine", "dine2"),
                        {EqC(A("dine2", "pid"), Value::Str("p0"))}),
                 {A("dine2", "cid")});
}

}  // namespace

int main() {
  for (int extra : {0, 20000}) {
    Database db = MakeData(extra);
    std::cout << "================ |D| = " << db.TotalTuples()
              << " tuples ================\n";

    // The access schema A0 of Example 1.
    AccessSchema schema;
    for (const char* text :
         {"friend((pid) -> (fid), 5000)",
          "dine((pid, year, month) -> (cid), 31)",
          "dine((pid, cid) -> (pid, cid), 1)",
          "cafe((cid) -> (city), 1)"}) {
      Result<AccessConstraint> c = AccessConstraint::Parse(text);
      if (!c.ok() || !schema.Add(*c, db.catalog()).ok()) return 1;
    }

    BoundedEngine engine(&db, schema);
    if (Status st = engine.BuildIndices(); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }

    RaExprPtr q0 = Diff(MakeQ1(), MakeQ2());
    std::cout << "Q0 = " << ToAlgebraString(q0) << "\n\n";

    Result<PrepareInfo> info = engine.Prepare(q0);
    if (!info.ok()) {
      std::cerr << info.status().ToString() << "\n";
      return 1;
    }
    std::cout << "covered after rewriting: " << (info->covered ? "yes" : "no")
              << " (rewriter applied: " << (info->used_rewrite ? "yes" : "no")
              << ")\n";
    if (extra == 0) {
      std::cout << "\ncanonical bounded plan (cf. Example 2):\n"
                << info->plan.ToString() << "\n";
      Result<std::string> sql = PlanToSql(info->plan);
      if (!sql.ok()) {
        std::cerr << sql.status().ToString() << "\n";
        return 1;
      }
      std::cout << "Plan2SQL:\n" << *sql << "\n\n";
    }

    Result<ExecuteResult> bounded = engine.Execute(q0);
    if (!bounded.ok()) {
      std::cerr << bounded.status().ToString() << "\n";
      return 1;
    }
    std::cout << "answer (restaurants to try): "
              << bounded->table.ToString() << "\n";
    std::cout << "tuples fetched by the bounded plan: "
              << bounded->bounded_stats.tuples_fetched << "\n";

    // Conventional evaluation for comparison.
    Result<NormalizedQuery> nq = Normalize(q0, db.catalog());
    BaselineStats bstats;
    Result<Table> oracle = EvaluateBaseline(*nq, db, &bstats);
    std::cout << "tuples scanned by conventional evaluation: "
              << bstats.tuples_scanned << "\n";
    std::cout << "answers agree: "
              << (Table::SameSet(bounded->table, *oracle) ? "yes" : "NO")
              << "\n\n";
  }
  std::cout << "Note how the bounded plan's access count is the same for both\n"
               "database sizes while the conventional scan grows with |D| —\n"
               "that is bounded evaluability (Section 2 of the paper).\n";
  return 0;
}
