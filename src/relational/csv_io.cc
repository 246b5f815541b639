#include "relational/csv_io.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

namespace osum::rel {

namespace {

const char* TypeToken(ValueType t) {
  switch (t) {
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
    case ValueType::kNull:
      break;
  }
  return "string";
}

// Parses the whole of `field` as a T; std::nullopt when any character is
// left over ("12abc") or the value is out of range.
template <typename T>
std::optional<T> ParseNumber(const std::string& field) {
  T value{};
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<ValueType> ParseType(const std::string& token) {
  if (token == "int") return ValueType::kInt;
  if (token == "double") return ValueType::kDouble;
  if (token == "string") return ValueType::kString;
  return std::nullopt;
}

// Doubles are round-tripped with %.17g so values survive save/load
// bit-exactly.
std::string SerializeValue(const Value& v) {
  switch (TypeOf(v)) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt:
      return std::to_string(std::get<int64_t>(v));
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", std::get<double>(v));
      return buf;
    }
    case ValueType::kString:
      return std::get<std::string>(v);
  }
  return "";
}

}  // namespace

std::string CsvQuote(const std::string& field) {
  bool needs_quote = field.empty();
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quote = true;
      break;
    }
  }
  if (!needs_quote) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

bool CsvParseLine(const std::string& line, std::vector<std::string>* fields,
                  std::vector<bool>* quoted) {
  fields->clear();
  quoted->clear();
  std::string cur;
  bool in_quotes = false;
  bool was_quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"' && cur.empty() && !was_quoted) {
      in_quotes = true;
      was_quoted = true;
    } else if (c == ',') {
      fields->push_back(std::move(cur));
      quoted->push_back(was_quoted);
      cur.clear();
      was_quoted = false;
    } else {
      cur += c;
    }
  }
  if (in_quotes) return false;  // unterminated quote
  fields->push_back(std::move(cur));
  quoted->push_back(was_quoted);
  return true;
}

void WriteRelationCsv(const Relation& relation, std::ostream& out) {
  const Schema& schema = relation.schema();
  for (ColumnId c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out << ",";
    out << CsvQuote(schema.column(c).name);
  }
  out << "\n";
  for (TupleId t = 0; t < relation.num_tuples(); ++t) {
    for (ColumnId c = 0; c < schema.num_columns(); ++c) {
      if (c > 0) out << ",";
      const Value& v = relation.value(t, c);
      if (TypeOf(v) == ValueType::kNull) {
        // NULL: empty unquoted field. Empty *strings* are written quoted
        // ("") so the two are distinguishable.
        continue;
      }
      std::string s = SerializeValue(v);
      if (TypeOf(v) == ValueType::kString && s.empty()) {
        out << "\"\"";
      } else {
        out << CsvQuote(s);
      }
    }
    out << "\n";
  }
}

bool ReadRelationCsv(std::istream& in, Relation* relation) {
  const Schema& schema = relation->schema();
  std::string line;
  if (!std::getline(in, line)) return false;  // header
  std::vector<std::string> fields;
  std::vector<bool> quoted;
  if (!CsvParseLine(line, &fields, &quoted)) return false;
  if (fields.size() != schema.num_columns()) return false;
  for (ColumnId c = 0; c < schema.num_columns(); ++c) {
    if (fields[c] != schema.column(c).name) return false;
  }

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!CsvParseLine(line, &fields, &quoted)) return false;
    if (fields.size() != schema.num_columns()) return false;
    std::vector<Value> values(schema.num_columns());
    for (ColumnId c = 0; c < schema.num_columns(); ++c) {
      const std::string& f = fields[c];
      if (f.empty() && !quoted[c]) {
        values[c] = Value{};  // NULL
        continue;
      }
      switch (schema.column(c).type) {
        case ValueType::kInt: {
          std::optional<int64_t> v = ParseNumber<int64_t>(f);
          if (!v.has_value()) return false;  // not wholly an int64
          values[c] = Value{*v};
          break;
        }
        case ValueType::kDouble: {
          std::optional<double> v = ParseNumber<double>(f);
          if (!v.has_value()) return false;  // not wholly a double
          values[c] = Value{*v};
          break;
        }
        default:
          values[c] = Value{f};
          break;
      }
    }
    relation->Append(std::move(values));
  }
  return true;
}

bool SaveDatabaseCsv(const Database& db, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;

  std::ofstream catalog(dir + "/catalog.txt");
  if (!catalog) return false;
  catalog << "# osum database catalog\n";
  for (RelationId r = 0; r < db.num_relations(); ++r) {
    const Relation& rel = db.relation(r);
    catalog << "relation " << rel.name() << " "
            << (rel.is_junction() ? "junction" : "entity") << "\n";
    for (const Column& c : rel.schema().columns()) {
      catalog << "column " << rel.name() << " " << c.name << " "
              << TypeToken(c.type) << " " << (c.display ? "display" : "hidden")
              << "\n";
    }
  }
  for (const ForeignKey& fk : db.foreign_keys()) {
    const Relation& child = db.relation(fk.child);
    catalog << "fk " << fk.name << " " << child.name() << " "
            << child.schema().column(fk.child_col).name << " "
            << db.relation(fk.parent).name() << "\n";
  }

  for (RelationId r = 0; r < db.num_relations(); ++r) {
    const Relation& rel = db.relation(r);
    std::ofstream out(dir + "/" + rel.name() + ".csv");
    if (!out) return false;
    WriteRelationCsv(rel, out);
  }
  return true;
}

std::optional<Database> LoadDatabaseCsv(const std::string& dir) {
  std::ifstream catalog(dir + "/catalog.txt");
  if (!catalog) {
    std::fprintf(stderr, "LoadDatabaseCsv: missing %s/catalog.txt\n",
                 dir.c_str());
    return std::nullopt;
  }

  // Two passes over the catalog: relations + columns first, then FKs.
  struct PendingRelation {
    std::string name;
    bool junction = false;
    Schema schema;
  };
  std::vector<PendingRelation> pending;
  struct PendingFk {
    std::string name, child, child_col, parent;
  };
  std::vector<PendingFk> fks;

  std::string line;
  while (std::getline(catalog, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string kind;
    ss >> kind;
    if (kind == "relation") {
      PendingRelation p;
      std::string flavor;
      ss >> p.name >> flavor;
      if (p.name.empty() || (flavor != "junction" && flavor != "entity")) {
        std::fprintf(stderr, "LoadDatabaseCsv: bad line '%s'\n",
                     line.c_str());
        return std::nullopt;
      }
      p.junction = flavor == "junction";
      pending.push_back(std::move(p));
    } else if (kind == "column") {
      std::string rel, name, type, vis;
      ss >> rel >> name >> type >> vis;
      auto parsed = ParseType(type);
      if (!parsed.has_value() || pending.empty() ||
          pending.back().name != rel || (vis != "display" && vis != "hidden")) {
        std::fprintf(stderr, "LoadDatabaseCsv: bad line '%s'\n",
                     line.c_str());
        return std::nullopt;
      }
      pending.back().schema.AddColumn(
          Column{name, *parsed, vis == "display"});
    } else if (kind == "fk") {
      PendingFk fk;
      ss >> fk.name >> fk.child >> fk.child_col >> fk.parent;
      if (fk.parent.empty()) {  // the line ended before all four names
        std::fprintf(stderr, "LoadDatabaseCsv: bad line '%s'\n",
                     line.c_str());
        return std::nullopt;
      }
      fks.push_back(std::move(fk));
    } else {
      std::fprintf(stderr, "LoadDatabaseCsv: unknown declaration '%s'\n",
                   kind.c_str());
      return std::nullopt;
    }
  }

  Database db;
  for (PendingRelation& p : pending) {
    db.AddRelation(p.name, std::move(p.schema), p.junction);
  }
  for (const PendingFk& fk : fks) {
    // FindRelationId, not GetRelationId: an unknown name in a catalog is
    // an input error, not a bug to abort on.
    std::optional<RelationId> child = db.FindRelationId(fk.child);
    std::optional<RelationId> parent = db.FindRelationId(fk.parent);
    if (!child.has_value() || !parent.has_value()) {
      std::fprintf(stderr, "LoadDatabaseCsv: fk '%s' names an unknown "
                   "relation ('%s' -> '%s')\n",
                   fk.name.c_str(), fk.child.c_str(), fk.parent.c_str());
      return std::nullopt;
    }
    auto col = db.relation(*child).schema().FindColumn(fk.child_col);
    if (!col.has_value()) {
      std::fprintf(stderr, "LoadDatabaseCsv: fk column '%s' missing\n",
                   fk.child_col.c_str());
      return std::nullopt;
    }
    db.AddForeignKey(fk.name, *child, *col, *parent);
  }

  for (RelationId r = 0; r < db.num_relations(); ++r) {
    Relation& rel = db.relation(r);
    std::ifstream in(dir + "/" + rel.name() + ".csv");
    if (!in) {
      std::fprintf(stderr, "LoadDatabaseCsv: missing %s.csv\n",
                   rel.name().c_str());
      return std::nullopt;
    }
    if (!ReadRelationCsv(in, &rel)) {
      std::fprintf(stderr, "LoadDatabaseCsv: malformed %s.csv\n",
                   rel.name().c_str());
      return std::nullopt;
    }
  }
  db.BuildIndexes();
  return db;
}

}  // namespace osum::rel
