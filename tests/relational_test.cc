// Unit tests for the embedded relational engine.
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "relational/database.h"

namespace osum::rel {
namespace {

Database MakeAuthorPaperDb() {
  // Author (2 tuples) 1:M Paper (4 tuples).
  Database db;
  Schema author_schema({{"name", ValueType::kString, true}});
  Schema paper_schema({{"title", ValueType::kString, true},
                       {"author_id", ValueType::kInt, false}});
  RelationId author = db.AddRelation("Author", author_schema);
  RelationId paper = db.AddRelation("Paper", paper_schema);
  db.AddForeignKey("paper_author", paper, 1, author);

  db.relation(author).Append({Value{std::string("Ann")}});
  db.relation(author).Append({Value{std::string("Bob")}});
  db.relation(paper).Append({Value{std::string("P0")}, Value{int64_t{0}}});
  db.relation(paper).Append({Value{std::string("P1")}, Value{int64_t{0}}});
  db.relation(paper).Append({Value{std::string("P2")}, Value{int64_t{1}}});
  db.relation(paper).Append({Value{std::string("P3")}, Value{int64_t{0}}});
  db.BuildIndexes();
  return db;
}

// Without SortIndexesByImportance the postings stay in insertion order, so
// the early exit would return P0 (5) as the top paper instead of P1 (9).
TEST(Database, TopImportanceRequiresSortedIndexes) {
  Database db = MakeAuthorPaperDb();
  db.relation(0).SetImportance({1.0, 1.0});
  db.relation(1).SetImportance({5.0, 9.0, 3.0, 7.0});
  EXPECT_THROW(db.ChildrenTopImportance(0, 0, 1, 0.0), std::logic_error);
  db.SortIndexesByImportance();
  EXPECT_EQ(db.ChildrenTopImportance(0, 0, 1, 0.0),
            std::vector<TupleId>{1u});
}

TEST(Value, TypeAndToString) {
  EXPECT_EQ(TypeOf(Value{}), ValueType::kNull);
  EXPECT_EQ(TypeOf(Value{int64_t{3}}), ValueType::kInt);
  EXPECT_EQ(TypeOf(Value{2.5}), ValueType::kDouble);
  EXPECT_EQ(TypeOf(Value{std::string("x")}), ValueType::kString);
  EXPECT_EQ(ToString(Value{}), "NULL");
  EXPECT_EQ(ToString(Value{int64_t{42}}), "42");
  EXPECT_EQ(ToString(Value{std::string("SIGCOMM")}), "SIGCOMM");
}

TEST(Value, AsNumeric) {
  EXPECT_DOUBLE_EQ(AsNumeric(Value{int64_t{3}}), 3.0);
  EXPECT_DOUBLE_EQ(AsNumeric(Value{2.5}), 2.5);
  EXPECT_DOUBLE_EQ(AsNumeric(Value{std::string("x")}), 0.0);
  EXPECT_DOUBLE_EQ(AsNumeric(Value{}), 0.0);
}

TEST(Schema, LookupAndOrder) {
  Schema s({{"a", ValueType::kInt, true}, {"b", ValueType::kString, false}});
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.GetColumn("b"), 1u);
  EXPECT_FALSE(s.FindColumn("missing").has_value());
  EXPECT_FALSE(s.column(1).display);
}

TEST(Relation, AppendAndAccess) {
  Relation r(0, "T", Schema({{"x", ValueType::kInt, true},
                             {"y", ValueType::kDouble, true}}),
             false);
  TupleId t0 = r.Append({Value{int64_t{1}}, Value{0.5}});
  TupleId t1 = r.Append({Value{int64_t{2}}, Value{1.5}});
  EXPECT_EQ(r.num_tuples(), 2u);
  EXPECT_EQ(r.IntValue(t0, 0), 1);
  EXPECT_DOUBLE_EQ(r.NumericValue(t1, 1), 1.5);
}

TEST(Relation, SetValueOverwrites) {
  Relation r(0, "T", Schema({{"x", ValueType::kDouble, true}}), false);
  TupleId t = r.Append({Value{0.0}});
  r.SetValue(t, 0, Value{7.5});
  EXPECT_DOUBLE_EQ(r.NumericValue(t, 0), 7.5);
}

TEST(Relation, ImportanceAnnotation) {
  Relation r(0, "T", Schema({{"x", ValueType::kInt, true}}), false);
  r.Append({Value{int64_t{0}}});
  r.Append({Value{int64_t{1}}});
  EXPECT_FALSE(r.has_importance());
  EXPECT_DOUBLE_EQ(r.importance(0), 0.0);
  r.SetImportance({1.5, 4.5});
  EXPECT_TRUE(r.has_importance());
  EXPECT_DOUBLE_EQ(r.importance(1), 4.5);
  EXPECT_DOUBLE_EQ(r.max_importance(), 4.5);
}

TEST(Relation, RenderSkipsHiddenColumns) {
  Relation r(0, "Paper", Schema({{"title", ValueType::kString, true},
                                 {"fk", ValueType::kInt, false}}),
             false);
  TupleId t = r.Append({Value{std::string("A Title")}, Value{int64_t{9}}});
  EXPECT_EQ(r.RenderTuple(t), "Paper: A Title");
}

TEST(Database, ForwardJoin) {
  Database db = MakeAuthorPaperDb();
  auto kids = db.Children(0, 0);
  EXPECT_EQ(kids.size(), 3u);  // P0, P1, P3
  auto kids1 = db.Children(0, 1);
  ASSERT_EQ(kids1.size(), 1u);
  EXPECT_EQ(kids1[0], 2u);
}

TEST(Database, BackwardJoin) {
  Database db = MakeAuthorPaperDb();
  auto parent = db.Parent(0, 2);
  ASSERT_TRUE(parent.has_value());
  EXPECT_EQ(*parent, 1u);
}

TEST(Database, NullFkHasNoParent) {
  Database db;
  RelationId a = db.AddRelation("A", Schema({{"x", ValueType::kInt, true}}));
  RelationId b = db.AddRelation(
      "B", Schema({{"a_id", ValueType::kInt, false}}));
  db.AddForeignKey("b_a", b, 0, a);
  db.relation(a).Append({Value{int64_t{0}}});
  db.relation(b).Append({Value{}});  // NULL reference
  db.BuildIndexes();
  EXPECT_FALSE(db.Parent(0, 0).has_value());
  EXPECT_TRUE(db.Children(0, 0).empty());
}

TEST(Database, TopImportanceAccessPath) {
  Database db = MakeAuthorPaperDb();
  db.relation(0).SetImportance({1.0, 1.0});
  db.relation(1).SetImportance({5.0, 9.0, 3.0, 7.0});
  db.SortIndexesByImportance();
  // Author 0's papers by importance: P1 (9), P3 (7), P0 (5).
  auto top2 = db.ChildrenTopImportance(0, 0, 2, 0.0);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], 1u);
  EXPECT_EQ(top2[1], 3u);
  // Threshold cuts the tail even when limit allows more.
  auto above6 = db.ChildrenTopImportance(0, 0, 10, 6.0);
  EXPECT_EQ(above6.size(), 2u);
  // Threshold above everything -> empty, but still counted as a SELECT.
  uint64_t before = db.io_stats().select_calls;
  auto none = db.ChildrenTopImportance(0, 0, 10, 100.0);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(db.io_stats().select_calls, before + 1);
}

TEST(Database, IoStatsCounting) {
  Database db = MakeAuthorPaperDb();
  db.io_stats().Reset();
  db.Children(0, 0);
  db.Parent(0, 0);
  EXPECT_EQ(db.io_stats().select_calls, 2u);
  EXPECT_EQ(db.io_stats().tuples_read, 4u);  // 3 children + 1 parent
}

TEST(Database, FkStats) {
  Database db = MakeAuthorPaperDb();
  FkStats stats = db.GetFkStats(0);
  EXPECT_EQ(stats.child_count, 4u);
  EXPECT_EQ(stats.max_fanout, 3u);
  EXPECT_DOUBLE_EQ(stats.avg_fanout, 2.0);  // 4 papers over 2 authors
}

TEST(Database, GetRelationByName) {
  Database db = MakeAuthorPaperDb();
  EXPECT_EQ(db.GetRelationId("Paper"), 1u);
  EXPECT_EQ(db.GetRelation("Author").num_tuples(), 2u);
}

TEST(Database, TotalTuples) {
  Database db = MakeAuthorPaperDb();
  EXPECT_EQ(db.TotalTuples(), 6u);
}

}  // namespace
}  // namespace osum::rel
