// liblint: SARIF 2.1.0 serialization for GitHub code scanning.
#pragma once

#include <string>
#include <vector>

#include "lint/source.hpp"

namespace lint {

/// Renders findings as a SARIF 2.1.0 log with one run. The tool.driver
/// rule table covers every built-in rule plus the engine-level
/// `stale-suppression` check, so results always resolve a ruleIndex. A
/// finding's path renders as one threadFlow within the finding's file.
std::string to_sarif(const std::vector<Finding>& findings);

}  // namespace lint
