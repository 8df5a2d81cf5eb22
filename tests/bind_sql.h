// BindSql: admits test SQL through a sql::TemplateCache and returns the
// bound statement (template + parameters) — the only form the origin ports,
// net::RemoteDatabase and rt::DbGateway, accept. Aborts on SQL that the
// admission contract rejects, since that is a broken test, not a result.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sql/template_cache.h"

namespace apollo {

inline sql::BoundStatement BindSql(const std::string& text) {
  static sql::TemplateCache cache;
  auto adm = cache.Admit(text);
  if (!adm.ok()) {
    std::fprintf(stderr, "BindSql: cannot admit \"%s\": %s\n", text.c_str(),
                 adm.status().ToString().c_str());
    std::abort();
  }
  return adm->bound();
}

}  // namespace apollo
