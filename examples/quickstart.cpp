// Quickstart: declare a schema and access constraints, load a few tuples,
// and run a SQL query through the bounded-evaluation engine.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "core/engine.h"
#include "core/plan2sql.h"
#include "ra/parser.h"
#include "ra/printer.h"

using namespace bqe;

int main() {
  // 1. A database: orders(order_id, customer, item, qty).
  Database db;
  Status st = db.CreateTable(RelationSchema(
      "orders", {{"order_id", ValueType::kInt},
                 {"customer", ValueType::kString},
                 {"item", ValueType::kString},
                 {"qty", ValueType::kInt}}));
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  const char* customers[] = {"ada", "bob", "cleo"};
  for (int i = 0; i < 60; ++i) {
    st = db.Insert("orders",
                   {Value::Int(i), Value::Str(customers[i % 3]),
                    Value::Str("item_" + std::to_string(i % 10)),
                    Value::Int(1 + i % 5)});
    if (!st.ok()) return 1;
  }

  // 2. An access schema: every customer places at most 30 orders, and
  //    order_id is a key.
  AccessSchema schema;
  auto add = [&](const char* text) {
    Result<AccessConstraint> c = AccessConstraint::Parse(text);
    if (!c.ok() || !schema.Add(*c, db.catalog()).ok()) {
      std::cerr << "bad constraint: " << text << "\n";
      exit(1);
    }
  };
  add("orders((customer) -> (order_id, item, qty), 30)");
  add("orders((order_id) -> (customer, item, qty), 1)");

  // 3. The engine: validates D |= A and builds the indices I_A.
  BoundedEngine engine(&db, schema);
  st = engine.BuildIndices();
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  // 4. A query, written in SQL.
  Result<RaExprPtr> query = ParseQuery(
      "SELECT item, qty FROM orders WHERE customer = 'ada' AND qty > 2",
      db.catalog());
  if (!query.ok()) {
    std::cerr << query.status().ToString() << "\n";
    return 1;
  }
  std::cout << "query (algebra): " << ToAlgebraString(*query) << "\n\n";

  // 5. Coverage check + bounded plan.
  Result<PrepareInfo> info = engine.Prepare(*query);
  if (!info.ok()) {
    std::cerr << info.status().ToString() << "\n";
    return 1;
  }
  std::cout << "covered by A:    " << (info->covered ? "yes" : "no") << "\n";
  std::cout << "plan (" << info->plan.Length() << " steps):\n"
            << info->plan.ToString() << "\n";
  Result<std::string> sql = PlanToSql(info->plan);
  if (!sql.ok()) {
    std::cerr << sql.status().ToString() << "\n";
    return 1;
  }
  std::cout << "as SQL over the index relations:\n" << *sql << "\n\n";

  // 6. Execute: data access goes through the indices only.
  Result<ExecuteResult> result = engine.Execute(*query);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  std::cout << "answer:\n" << result->table.ToString() << "\n";
  std::printf("tuples fetched: %llu of %zu in D (%.2f%%)\n",
              static_cast<unsigned long long>(
                  result->bounded_stats.tuples_fetched),
              db.TotalTuples(),
              100.0 * static_cast<double>(result->bounded_stats.tuples_fetched) /
                  static_cast<double>(db.TotalTuples()));
  return 0;
}
