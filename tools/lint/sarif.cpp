#include "lint/sarif.hpp"

#include <map>
#include <sstream>

#include "lint/rules.hpp"

namespace lint {

namespace {

/// JSON string escape (control chars, quote, backslash).
std::string esc(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string to_sarif(const std::vector<Finding>& findings) {
  // The driver rule table IS the catalog (all rules + the engine-level
  // stale check), so results always resolve a ruleIndex.
  const std::vector<RuleMeta>& rules = rule_catalog();
  std::map<std::string_view, std::size_t> rule_index;
  for (std::size_t i = 0; i < rules.size(); ++i) rule_index[rules[i].name] = i;

  std::ostringstream out;
  out << "{\n"
         "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
         "  \"version\": \"2.1.0\",\n"
         "  \"runs\": [\n"
         "    {\n"
         "      \"tool\": {\n"
         "        \"driver\": {\n"
         "          \"name\": \"snacc-lint\",\n"
         "          \"version\": \"6.0.0\",\n"
         "          \"informationUri\": "
         "\"https://example.invalid/snacc/docs/STATIC_ANALYSIS.md\",\n"
         "          \"rules\": [\n";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out << "            {\n"
        << "              \"id\": \"" << esc(rules[i].name) << "\",\n"
        << "              \"shortDescription\": { \"text\": \""
        << esc(rules[i].description) << "\" },\n"
        << "              \"defaultConfiguration\": { \"level\": \"error\" }\n"
        << "            }" << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  out << "          ]\n"
         "        }\n"
         "      },\n"
         "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    const auto it = rule_index.find(f.rule);
    out << "        {\n"
        << "          \"ruleId\": \"" << esc(f.rule) << "\",\n";
    if (it != rule_index.end()) {
      out << "          \"ruleIndex\": " << it->second << ",\n";
    }
    out << "          \"level\": \"error\",\n"
        << "          \"message\": { \"text\": \"" << esc(f.message)
        << "\" },\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": { \"uri\": \"" << esc(f.file)
        << "\" },\n"
        << "                \"region\": { \"startLine\": "
        << (f.line == 0 ? 1 : f.line) << " }\n"
        << "              }\n"
        << "            }\n"
        << "          ]";
    // Path-sensitive findings carry the execution path as one threadFlow,
    // which GitHub code scanning renders as a step-by-step walkthrough.
    if (!f.path.empty()) {
      out << ",\n          \"codeFlows\": [\n"
             "            { \"threadFlows\": [ { \"locations\": [\n";
      for (std::size_t s = 0; s < f.path.size(); ++s) {
        const PathStep& step = f.path[s];
        out << "              { \"location\": {\n"
            << "                \"physicalLocation\": {\n"
            << "                  \"artifactLocation\": { \"uri\": \""
            << esc(f.file) << "\" },\n"
            << "                  \"region\": { \"startLine\": "
            << (step.line == 0 ? 1 : step.line) << " }\n"
            << "                },\n"
            << "                \"message\": { \"text\": \"" << esc(step.note)
            << "\" }\n"
            << "              } }" << (s + 1 < f.path.size() ? "," : "")
            << "\n";
      }
      out << "            ] } ] }\n"
             "          ]";
    }
    out << "\n        }" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  out << "      ]\n"
         "    }\n"
         "  ]\n"
         "}\n";
  return out.str();
}

}  // namespace lint
