// Tests for database CSV persistence: quoting, NULL round-trips, whole
// database save/load equality and error handling.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "datasets/dblp.h"
#include "datasets/tpch.h"
#include "relational/csv_io.h"

namespace osum::rel {
namespace {

std::string TempDir(const char* tag) {
  std::string dir = std::filesystem::temp_directory_path() /
                    ("osum_csv_test_" + std::string(tag));
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(CsvQuoteTest, PlainFieldsUntouched) {
  EXPECT_EQ(CsvQuote("hello"), "hello");
  EXPECT_EQ(CsvQuote("42"), "42");
}

TEST(CsvQuoteTest, SpecialsQuoted) {
  EXPECT_EQ(CsvQuote("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvQuote(""), "\"\"");
}

TEST(CsvParse, RoundTripsFields) {
  std::vector<std::string> fields;
  std::vector<bool> quoted;
  ASSERT_TRUE(CsvParseLine("a,\"b,c\",\"d\"\"e\",", &fields, &quoted));
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
  EXPECT_EQ(fields[3], "");
  EXPECT_FALSE(quoted[0]);
  EXPECT_TRUE(quoted[1]);
  EXPECT_FALSE(quoted[3]);
}

TEST(CsvParse, RejectsUnterminatedQuote) {
  std::vector<std::string> fields;
  std::vector<bool> quoted;
  EXPECT_FALSE(CsvParseLine("\"open", &fields, &quoted));
}

TEST(RelationCsv, RoundTripWithNullsAndCommas) {
  Schema schema({{"name", ValueType::kString, true},
                 {"price", ValueType::kDouble, true},
                 {"ref", ValueType::kInt, false}});
  Relation original(0, "T", schema, false);
  original.Append({Value{std::string("plain")}, Value{1.5}, Value{int64_t{7}}});
  original.Append({Value{std::string("with, comma")}, Value{}, Value{}});
  original.Append({Value{std::string("")}, Value{-2.25}, Value{int64_t{0}}});

  std::stringstream buffer;
  WriteRelationCsv(original, buffer);
  Relation loaded(0, "T", schema, false);
  ASSERT_TRUE(ReadRelationCsv(buffer, &loaded));
  ASSERT_EQ(loaded.num_tuples(), 3u);
  EXPECT_EQ(loaded.StringValue(1, 0), "with, comma");
  EXPECT_EQ(TypeOf(loaded.value(1, 1)), ValueType::kNull);
  EXPECT_EQ(TypeOf(loaded.value(1, 2)), ValueType::kNull);
  EXPECT_EQ(loaded.StringValue(2, 0), "");  // empty string, not NULL
  EXPECT_DOUBLE_EQ(loaded.NumericValue(2, 1), -2.25);
}

TEST(RelationCsv, RejectsWrongHeader) {
  Schema schema({{"x", ValueType::kInt, true}});
  Relation r(0, "T", schema, false);
  std::stringstream in("y\n1\n");
  EXPECT_FALSE(ReadRelationCsv(in, &r));
}

TEST(RelationCsv, RejectsNonNumericInIntColumn) {
  Schema schema({{"x", ValueType::kInt, true}});
  Relation r(0, "T", schema, false);
  std::stringstream in("x\nnotanumber\n");
  EXPECT_FALSE(ReadRelationCsv(in, &r));
}

TEST(RelationCsv, RejectsTrailingGarbageInNumericColumns) {
  Schema schema({{"x", ValueType::kInt, true},
                 {"y", ValueType::kDouble, true}});
  auto load = [&](const char* row) {
    Relation r(0, "T", schema, false);
    std::stringstream in(std::string("x,y\n") + row + "\n");
    return ReadRelationCsv(in, &r);
  };
  EXPECT_TRUE(load("12,1.5"));
  EXPECT_TRUE(load("-3,-2.5e-3"));
  // A numeric field must be a number through to its last character.
  EXPECT_FALSE(load("12abc,1.5kg"));
  EXPECT_FALSE(load("12abc,1.5"));
  EXPECT_FALSE(load("12,1.5kg"));
  EXPECT_FALSE(load("12 ,1.5"));
  EXPECT_FALSE(load("1.0,1.5"));  // a double in the int column
  // Out of range stays an error.
  EXPECT_FALSE(load("99999999999999999999,1.5"));
  EXPECT_FALSE(load("12,1e999"));
}

TEST(DatabaseCsv, FullDblpRoundTrip) {
  datasets::DblpConfig config;
  config.num_authors = 60;
  config.num_papers = 150;
  config.num_conferences = 5;
  datasets::Dblp d = datasets::BuildDblp(config);

  std::string dir = TempDir("dblp");
  ASSERT_TRUE(SaveDatabaseCsv(d.db, dir));
  auto loaded = LoadDatabaseCsv(dir);
  ASSERT_TRUE(loaded.has_value());

  ASSERT_EQ(loaded->num_relations(), d.db.num_relations());
  ASSERT_EQ(loaded->num_foreign_keys(), d.db.num_foreign_keys());
  EXPECT_EQ(loaded->TotalTuples(), d.db.TotalTuples());
  for (RelationId r = 0; r < d.db.num_relations(); ++r) {
    const Relation& a = d.db.relation(r);
    const Relation& b = loaded->relation(r);
    ASSERT_EQ(a.name(), b.name());
    ASSERT_EQ(a.num_tuples(), b.num_tuples());
    EXPECT_EQ(a.is_junction(), b.is_junction());
    // Spot-check a few tuples per relation cell-by-cell.
    for (TupleId t = 0; t < std::min<TupleId>(5, a.num_tuples()); ++t) {
      for (ColumnId c = 0; c < a.schema().num_columns(); ++c) {
        EXPECT_EQ(ToString(a.value(t, c)), ToString(b.value(t, c)))
            << a.name() << " t=" << t << " c=" << c;
      }
    }
  }
  // Indexes were rebuilt: joins answer immediately.
  EXPECT_FALSE(loaded->Children(0, 0).empty() &&
               d.db.Children(0, 0).size() > 0);
  std::filesystem::remove_all(dir);
}

TEST(DatabaseCsv, FullTpchRoundTrip) {
  // TPC-H twin of FullDblpRoundTrip: 8 relations, no junctions, doubles in
  // every monetary column — exercises the numeric formatting paths the
  // DBLP schema barely touches.
  datasets::TpchConfig config;
  config.num_customers = 40;
  config.num_suppliers = 6;
  config.num_parts = 50;
  config.mean_orders_per_customer = 4.0;
  datasets::Tpch t = datasets::BuildTpch(config);

  std::string dir = TempDir("tpch");
  ASSERT_TRUE(SaveDatabaseCsv(t.db, dir));
  auto loaded = LoadDatabaseCsv(dir);
  ASSERT_TRUE(loaded.has_value());

  ASSERT_EQ(loaded->num_relations(), t.db.num_relations());
  ASSERT_EQ(loaded->num_foreign_keys(), t.db.num_foreign_keys());
  EXPECT_EQ(loaded->TotalTuples(), t.db.TotalTuples());
  for (RelationId r = 0; r < t.db.num_relations(); ++r) {
    const Relation& a = t.db.relation(r);
    const Relation& b = loaded->relation(r);
    ASSERT_EQ(a.name(), b.name());
    ASSERT_EQ(a.num_tuples(), b.num_tuples());
    EXPECT_EQ(a.is_junction(), b.is_junction());
    for (TupleId tu = 0; tu < std::min<TupleId>(5, a.num_tuples()); ++tu) {
      for (ColumnId c = 0; c < a.schema().num_columns(); ++c) {
        EXPECT_EQ(ToString(a.value(tu, c)), ToString(b.value(tu, c)))
            << a.name() << " t=" << tu << " c=" << c;
      }
    }
  }
  // The reloaded database answers the Customer->Orders join like the
  // original (indexes rebuilt by the loader).
  ForeignKeyId order_cust = 0;
  bool found_order_cust = false;
  for (ForeignKeyId fk = 0; fk < t.db.num_foreign_keys(); ++fk) {
    if (t.db.foreign_key(fk).child == t.orders &&
        t.db.foreign_key(fk).parent == t.customer) {
      order_cust = fk;
      found_order_cust = true;
    }
  }
  ASSERT_TRUE(found_order_cust);
  for (TupleId c = 0; c < 5; ++c) {
    auto a = t.db.Children(order_cust, c);
    auto b = loaded->Children(order_cust, c);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "customer " << c;
  }
  std::filesystem::remove_all(dir);
}

TEST(DatabaseCsv, LoadFailsOnMissingDir) {
  EXPECT_FALSE(LoadDatabaseCsv("/nonexistent/osum_dir_42").has_value());
}

TEST(DatabaseCsv, LoadFailsOnCorruptCatalog) {
  std::string dir = TempDir("corrupt");
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/catalog.txt") << "gibberish here\n";
  EXPECT_FALSE(LoadDatabaseCsv(dir).has_value());
  std::filesystem::remove_all(dir);
}

TEST(DatabaseCsv, LoadFailsOnUnknownFkRelation) {
  std::string dir = TempDir("badfk");
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/T.csv") << "x\n1\n";
  const std::string base =
      "relation T entity\ncolumn T x int display\n";
  auto load = [&](const std::string& fk_line) {
    std::ofstream(dir + "/catalog.txt") << base << fk_line;
    return LoadDatabaseCsv(dir).has_value();
  };
  ASSERT_TRUE(load(""));  // the catalog itself is sound
  EXPECT_FALSE(load("fk f T x Missing\n"));  // unknown parent
  EXPECT_FALSE(load("fk f Missing x T\n"));  // unknown child
  EXPECT_FALSE(load("fk f\n"));              // truncated line
  std::filesystem::remove_all(dir);
}

TEST(DatabaseCsv, LoadFailsOnMissingRelationFile) {
  std::string dir = TempDir("missingrel");
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/catalog.txt")
      << "relation T entity\ncolumn T x int display\n";
  EXPECT_FALSE(LoadDatabaseCsv(dir).has_value());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace osum::rel
