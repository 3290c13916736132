/**
 * @file
 * Prometheus text-exposition encoding of a StatRegistry (format
 * version 0.0.4 — the `text/plain; version=0.0.4` format every
 * Prometheus scraper and `promtool check metrics` accepts), rendered
 * when a scrape arrives.
 *
 * Series naming: the registry's dotted path is sanitized (every
 * character outside [a-zA-Z0-9_] becomes '_') and prefixed "xbsp_".
 * Per stat kind:
 *
 *   counter p       -> xbsp_<p>_total              (TYPE counter)
 *   distribution p  -> xbsp_<p>_sum, xbsp_<p>_count  (TYPE counter)
 *   timer p         -> xbsp_<p>_nanos_total,
 *                      xbsp_<p>_count              (TYPE counter)
 *
 * plus gauges for the state that lives outside the registry: the
 * Progress meter and the configured pool size.  The renderer keeps no
 * state between scrapes, so it serves no rates: a rate computed here
 * would cover the window since whichever client scraped last.
 * Prometheus derives rates from the `_total` counters, and `xbsp top`
 * diffs two of its own scrapes.
 *
 * parseExposition() is the matching reader used by `xbsp top` and
 * the tests: it understands exactly the subset this encoder emits
 * (comments, `name value` lines, no labels).
 */

#ifndef XBSP_OBS_LIVE_EXPOSITION_HH
#define XBSP_OBS_LIVE_EXPOSITION_HH

#include <map>
#include <string>
#include <string_view>

namespace xbsp::obs
{

/** "kmeans.estep.distances" -> "xbsp_kmeans_estep_distances". */
std::string promSeriesName(std::string_view path);

class StatRegistry;

/**
 * Render `registry` as one exposition document.  A pure read
 * (StatRegistry::liveStats()): it registers and mutates nothing.
 */
std::string renderExposition(const StatRegistry& registry);

/**
 * Parse an exposition document into name -> value.  Throws
 * std::runtime_error on lines that are neither comments, blank, nor
 * `name value` pairs.
 */
std::map<std::string, double> parseExposition(std::string_view text);

} // namespace xbsp::obs

#endif // XBSP_OBS_LIVE_EXPOSITION_HH
