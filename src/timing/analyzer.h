// TimingAnalyzer is another name for Session (design/session.h), the one
// analysis class.  The alias keeps callers written against that name
// compiling; the report, explain, slack, constraints, harness and oracle
// headers include this header so that their users see both names.  New
// code says Session.
#pragma once

#include "design/session.h"

namespace sldm {

using TimingAnalyzer = Session;

}  // namespace sldm
