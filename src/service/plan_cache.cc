#include "service/plan_cache.h"

namespace aqv {

std::string RewritePlanCache::MakeKey(const std::string& engine,
                                      const std::string& options_digest,
                                      const std::string& query_text,
                                      const std::string& views_text) {
  // Section markers make the concatenation injective: no (engine, digest,
  // query, views) quadruple collides with another by boundary shifting,
  // because the component texts never contain the '\x1f' separator.
  std::string key;
  key.reserve(engine.size() + options_digest.size() + query_text.size() +
              views_text.size() + 8);
  key += engine;
  key += '\x1f';
  key += options_digest;
  key += '\x1f';
  key += query_text;
  key += '\x1f';
  key += views_text;
  return key;
}

}  // namespace aqv
