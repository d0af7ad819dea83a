#include "reference.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

using fusion::format::ColumnData;
using fusion::format::PhysicalType;
using fusion::format::Table;
using fusion::format::Value;
using fusion::query::AggregateKind;
using fusion::query::CompareOp;
using fusion::query::Predicate;
using fusion::query::Query;
using fusion::query::QueryResult;

namespace {

template <typename T>
bool
holds(const T &a, CompareOp op, const T &b)
{
    switch (op) {
      case CompareOp::kLt: return a < b;
      case CompareOp::kLe: return a <= b;
      case CompareOp::kGt: return a > b;
      case CompareOp::kGe: return a >= b;
      case CompareOp::kEq: return a == b;
      case CompareOp::kNe: return a != b;
    }
    return false;
}

bool
isIntegral(PhysicalType t)
{
    return t == PhysicalType::kInt32 || t == PhysicalType::kInt64;
}

/** ANDs one predicate into `mask` over one table's rows. */
void
applyPredicate(const Table &table, const Predicate &pred,
               std::vector<char> &mask)
{
    const size_t col = table.schema().columnIndex(pred.column).value();
    const ColumnData &data = table.column(col);
    const Value &lit = pred.literal;
    auto each = [&](const auto &values, auto literal) {
        for (size_t r = 0; r < values.size(); ++r)
            if (mask[r] && !holds(static_cast<decltype(literal)>(values[r]),
                                  pred.op, literal))
                mask[r] = 0;
    };
    switch (data.type()) {
      case PhysicalType::kInt32:
        if (isIntegral(lit.type()))
            each(data.int32s(), static_cast<int64_t>(lit.numeric()));
        else
            each(data.int32s(), lit.numeric());
        break;
      case PhysicalType::kInt64:
        if (isIntegral(lit.type()))
            each(data.int64s(), lit.type() == PhysicalType::kInt64
                                    ? lit.asInt64()
                                    : int64_t{lit.asInt32()});
        else
            each(data.int64s(), lit.numeric());
        break;
      case PhysicalType::kDouble: each(data.doubles(), lit.numeric()); break;
      case PhysicalType::kString:
        for (size_t r = 0; r < data.size(); ++r)
            if (mask[r] && !holds(data.strings()[r], pred.op, lit.asString()))
                mask[r] = 0;
        break;
    }
}

/** Appends the selected rows of one column of `table` to `out`. */
void
appendSelected(const ColumnData &data, const std::vector<char> &mask,
               ColumnData &out)
{
    auto each = [&](const auto &values) {
        for (size_t r = 0; r < values.size(); ++r)
            if (mask[r])
                out.append(values[r]);
    };
    switch (data.type()) {
      case PhysicalType::kInt32: each(data.int32s()); break;
      case PhysicalType::kInt64: each(data.int64s()); break;
      case PhysicalType::kDouble: each(data.doubles()); break;
      case PhysicalType::kString: each(data.strings()); break;
    }
}

double
aggregate(AggregateKind kind, const ColumnData &values)
{
    if (kind == AggregateKind::kCount)
        return static_cast<double>(values.size());
    if (values.size() == 0)
        return 0.0; // the store's documented stand-in for SQL NULL
    double sum = 0.0, lo = 0.0, hi = 0.0;
    auto each = [&](const auto &v) {
        lo = hi = static_cast<double>(v[0]);
        for (const auto &x : v) {
            double d = static_cast<double>(x);
            sum += d;
            lo = std::min(lo, d);
            hi = std::max(hi, d);
        }
    };
    switch (values.type()) {
      case PhysicalType::kInt32: each(values.int32s()); break;
      case PhysicalType::kInt64: each(values.int64s()); break;
      case PhysicalType::kDouble: each(values.doubles()); break;
      case PhysicalType::kString: return NAN;
    }
    switch (kind) {
      case AggregateKind::kSum: return sum;
      case AggregateKind::kAvg:
        return sum / static_cast<double>(values.size());
      case AggregateKind::kMin: return lo;
      case AggregateKind::kMax: return hi;
      default: return NAN;
    }
}

std::vector<std::vector<char>>
masks(const Query &q, const TableParts &parts)
{
    std::vector<std::vector<char>> out;
    for (const Table *part : parts) {
        std::vector<char> mask(part->numRows(), 1);
        for (const Predicate &pred : q.filters)
            applyPredicate(*part, pred, mask);
        out.push_back(std::move(mask));
    }
    return out;
}

} // namespace

std::vector<size_t>
referenceSelect(const Query &q, const TableParts &parts)
{
    std::vector<size_t> rows;
    size_t offset = 0;
    auto ms = masks(q, parts);
    for (size_t p = 0; p < parts.size(); ++p) {
        for (size_t r = 0; r < ms[p].size(); ++r)
            if (ms[p][r])
                rows.push_back(offset + r);
        offset += ms[p].size();
    }
    return rows;
}

QueryResult
referenceEvaluate(const Query &q, const TableParts &parts)
{
    QueryResult out;
    auto ms = masks(q, parts);
    for (size_t p = 0; p < parts.size(); ++p) {
        out.rowsScanned += parts[p]->numRows();
        for (char m : ms[p])
            out.rowsMatched += m ? 1 : 0;
    }
    const fusion::format::Schema &schema = parts.front()->schema();
    for (const auto &proj : q.projections) {
        fusion::query::ProjectionResult col;
        col.name = proj.column;
        if (proj.isCountStar()) {
            col.isAggregate = true;
            col.aggregateValue = static_cast<double>(out.rowsMatched);
            out.columns.push_back(std::move(col));
            continue;
        }
        const size_t ci = schema.columnIndex(proj.column).value();
        ColumnData values(schema.column(ci).physical);
        for (size_t p = 0; p < parts.size(); ++p)
            appendSelected(parts[p]->column(ci), ms[p], values);
        if (proj.aggregate == AggregateKind::kNone) {
            col.values = std::move(values);
        } else {
            col.isAggregate = true;
            col.aggregateValue = aggregate(proj.aggregate, values);
        }
        out.columns.push_back(std::move(col));
    }
    return out;
}

std::string
compareResults(const Query &q, const QueryResult &got, const QueryResult &want)
{
    char buf[256];
    if (got.rowsMatched != want.rowsMatched) {
        std::snprintf(buf, sizeof(buf), "rows matched %llu, want %llu",
                      static_cast<unsigned long long>(got.rowsMatched),
                      static_cast<unsigned long long>(want.rowsMatched));
        return buf;
    }
    if (got.columns.size() != want.columns.size())
        return "column count differs";
    for (size_t i = 0; i < want.columns.size(); ++i) {
        const auto &g = got.columns[i];
        const auto &w = want.columns[i];
        if (g.isAggregate != w.isAggregate)
            return "column " + std::to_string(i) + " kind differs";
        if (!w.isAggregate) {
            if (!(g.values == w.values))
                return "column " + std::to_string(i) + " values differ";
            continue;
        }
        const AggregateKind kind = q.projections.at(i).aggregate;
        bool ok;
        if (kind == AggregateKind::kSum || kind == AggregateKind::kAvg)
            ok = std::fabs(g.aggregateValue - w.aggregateValue) <=
                 1e-9 * std::max(1.0, std::fabs(w.aggregateValue));
        else
            ok = g.aggregateValue == w.aggregateValue;
        if (!ok) {
            std::snprintf(buf, sizeof(buf),
                          "aggregate %zu is %.17g, want %.17g", i,
                          g.aggregateValue, w.aggregateValue);
            return buf;
        }
    }
    return "";
}

bool
tablesEqual(const Table &a, const Table &b)
{
    if (a.numColumns() != b.numColumns() || a.numRows() != b.numRows())
        return false;
    for (size_t c = 0; c < a.numColumns(); ++c)
        if (!(a.column(c) == b.column(c)))
            return false;
    return true;
}

} // namespace perfbench
