// JSON string escaping for every exporter: Chrome traces, the metrics
// schema and the bench documents share one helper, so no writer can emit
// invalid JSON for labels containing '"' or '\'.  The library only writes
// JSON; tools/tseig_prof reads it back.
#pragma once

#include <string>

namespace tseig::obs {

/// Escapes `s` for inclusion inside a JSON string literal: backslash, double
/// quote, and control characters (as \uXXXX).  Returns the escaped body
/// without surrounding quotes.
std::string json_escape(const std::string& s);

/// Writes `s` as a complete JSON string literal (quotes included).
std::string json_string(const std::string& s);

}  // namespace tseig::obs
