/**
 * @file
 * Minimal JSON reader: a recursive-descent parser scoped to what the
 * corpus manifest (workload/corpus.cc) needs — objects, arrays,
 * strings with the common escapes, numbers, booleans, null — with one
 * set of fatal diagnostics ("<where>: invalid JSON at byte N: ...").
 */

#ifndef HIRA_COMMON_JSON_HH
#define HIRA_COMMON_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace hira {

/** One parsed JSON value (a small, copyable tree). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Object member by key, or nullptr (first match wins). */
    const JsonValue *
    get(const std::string &key) const
    {
        for (const auto &kv : object) {
            if (kv.first == key)
                return &kv.second;
        }
        return nullptr;
    }
};

/**
 * Parse @p text as one JSON document. Malformed input is fatal with
 * @p where (a path or protocol name) and the byte offset; trailing
 * garbage after the top-level value is rejected.
 */
JsonValue parseJson(const std::string &text, const std::string &where);

} // namespace hira

#endif // HIRA_COMMON_JSON_HH
