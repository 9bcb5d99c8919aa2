#ifndef PROMPTEM_DATA_JSON_H_
#define PROMPTEM_DATA_JSON_H_

#include <string>
#include <string_view>

#include "core/status.h"
#include "data/record.h"

namespace promptem::data {

/// Parses one JSON document into a Value. Supported grammar covers what
/// semi-structured GEM records need: objects, arrays, strings (with
/// standard escapes incl. \uXXXX for the BMP), numbers, true/false/null
/// (booleans map to numbers 1/0; null maps to the empty string).
/// Duplicate object keys keep the last occurrence.
///
/// Objects and arrays may nest at most kMaxJsonDepth levels ("[]" is one
/// level); deeper input is rejected with InvalidArgument instead of
/// recursing without bound (the parser is recursive descent, and its
/// input includes untrusted client frames).
inline constexpr int kMaxJsonDepth = 64;
core::Result<Value> ParseJson(std::string_view text);

/// Parses a JSON object into a semi-structured Record.
/// Fails unless the top-level value is an object.
core::Result<Record> ParseJsonRecord(std::string_view text);

/// Serializes a Value back to compact JSON (strings escaped; numbers via
/// Value::NumberToString).
std::string ToJson(const Value& value);

/// Serializes a record's attributes as a JSON object. Textual records
/// become {"text": "..."}.
std::string RecordToJson(const Record& record);

}  // namespace promptem::data

#endif  // PROMPTEM_DATA_JSON_H_
