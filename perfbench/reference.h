/**
 * @file
 * Reference evaluation for the benchmark's correctness check. Queries
 * are evaluated here directly over the generated source tables (base
 * rows followed by appended batches, in order), with no code from the
 * store's query path: typed predicate comparisons, row selection and
 * aggregates are written out below.
 */
#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <string>
#include <vector>

#include "format/column.h"
#include "query/ast.h"

namespace perfbench {

/** Rows a query sees: the base table, then each appended batch. */
using TableParts = std::vector<const fusion::format::Table *>;

/** Row indices (into the concatenation of `parts`) a query selects. */
std::vector<size_t> referenceSelect(const fusion::query::Query &q,
                                    const TableParts &parts);

/** The result the query must produce over `parts`. */
fusion::query::QueryResult referenceEvaluate(const fusion::query::Query &q,
                                             const TableParts &parts);

/**
 * Compares a store result with the reference. Row counts, projected
 * values and their order, COUNT, MIN and MAX must match exactly; SUM
 * and AVG within a relative tolerance of 1e-9 (the store merges
 * appended rows into SUM/AVG in a different order). Returns an empty
 * string on a match, else a description of the first difference.
 */
std::string compareResults(const fusion::query::Query &q,
                           const fusion::query::QueryResult &got,
                           const fusion::query::QueryResult &want);

/** True when every column of the two tables holds equal values. */
bool tablesEqual(const fusion::format::Table &a,
                 const fusion::format::Table &b);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
