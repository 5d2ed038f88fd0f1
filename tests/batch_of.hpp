// Test helper: a TraceBatch from literal rows.
#pragma once

#include <initializer_list>

#include "trace/batch.hpp"

namespace planaria::test_util {

inline trace::TraceBatch batch_of(
    std::initializer_list<trace::TraceRecord> rows) {
  trace::TraceBatch out;
  out.reserve(rows.size());
  for (const trace::TraceRecord& row : rows) out.push_back(row);
  return out;
}

}  // namespace planaria::test_util
