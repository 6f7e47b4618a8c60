//! Prometheus text exposition (format version 0.0.4) for the metrics
//! registry, served at `/metrics` (and at `/metrics.prom`, an alias kept for
//! existing scrapers). Counters map to `counter` families, histograms to
//! native `histogram` families with *cumulative* `le` buckets plus a `_max`
//! gauge, and p50/p90/p99 gauges are interpolated from the fixed power-of-4
//! buckets so dashboards get quantiles without PromQL `histogram_quantile`
//! support.
//!
//! The exposition's one reader lives here too: [`check_exposition`]
//! validates a scraped body line by line and returns its samples, so tests
//! and tooling read counters and histograms back through the same checker
//! CI runs on a live endpoint.

use crate::metrics::{CounterId, HistogramId, HistogramSnapshot};
use crate::{SpanKind, Telemetry};

/// Prefix applied to every exported family name.
const PREFIX: &str = "torpedo_";

/// The quantiles exported per histogram, as (label, q) pairs.
pub const QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)];

/// Estimate the `q`-quantile (0.0 ..= 1.0) of a histogram snapshot by linear
/// interpolation inside the bucket containing the target rank — the same
/// scheme Prometheus' `histogram_quantile` uses. Observations in the
/// overflow bucket are attributed to the maximum observed value. Returns
/// `0.0` for an empty histogram.
pub fn quantile_from_snapshot(id: HistogramId, snap: &HistogramSnapshot, q: f64) -> f64 {
    if snap.count == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * snap.count as f64;
    let bounds = id.bounds();
    let mut cumulative = 0u64;
    let mut lower = 0u64;
    for (i, &count) in snap.buckets.iter().enumerate() {
        let upper = bounds[i];
        cumulative += count;
        if cumulative as f64 >= target {
            if count == 0 {
                return upper as f64;
            }
            let rank_in_bucket = target - (cumulative - count) as f64;
            let fraction = (rank_in_bucket / count as f64).clamp(0.0, 1.0);
            return lower as f64 + fraction * (upper - lower) as f64;
        }
        lower = upper;
    }
    // Target rank lives in the overflow bucket: the best point estimate we
    // retain is the maximum observed value.
    snap.max as f64
}

fn write_family_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

fn write_histogram(out: &mut String, id: HistogramId, snap: &HistogramSnapshot) {
    let name = format!("{PREFIX}{}", id.as_str());
    write_family_header(
        out,
        &name,
        "histogram",
        &format!("Torpedo {} distribution ({}).", id.as_str(), id.unit()),
    );
    let mut cumulative = 0u64;
    for (i, &bound) in id.bounds().iter().enumerate() {
        cumulative += snap.buckets.get(i).copied().unwrap_or(0);
        out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
    out.push_str(&format!("{name}_sum {}\n", snap.sum));
    out.push_str(&format!("{name}_count {}\n", snap.count));
    for (label, q) in QUANTILES {
        let value = quantile_from_snapshot(id, snap, q);
        write_family_header(
            out,
            &format!("{name}_{label}"),
            "gauge",
            &format!("Interpolated {label} of {}.", id.as_str()),
        );
        out.push_str(&format!("{name}_{label} {value}\n"));
    }
    write_family_header(
        out,
        &format!("{name}_max"),
        "gauge",
        &format!("Largest observed {}.", id.as_str()),
    );
    out.push_str(&format!("{name}_max {}\n", snap.max));
    // The saturation counter: observations past the last finite bucket.
    // Until now this only rendered as a text line on the status page; as a
    // counter family it is scrapeable and alertable.
    write_family_header(
        out,
        &format!("{name}_overflow"),
        "counter",
        &format!(
            "Observations of {} past the last finite bucket.",
            id.as_str()
        ),
    );
    out.push_str(&format!("{name}_overflow {}\n", snap.overflow));
}

/// Render the full text exposition for a telemetry handle. A disabled handle
/// exports only `torpedo_telemetry_enabled 0` so scrapers can tell "off"
/// from "broken".
pub fn prometheus_exposition(telemetry: &Telemetry) -> String {
    let mut out = String::with_capacity(4096);
    write_family_header(
        &mut out,
        "torpedo_telemetry_enabled",
        "gauge",
        "Whether the telemetry subsystem is recording.",
    );
    out.push_str(&format!(
        "torpedo_telemetry_enabled {}\n",
        u8::from(telemetry.is_enabled())
    ));
    if !telemetry.is_enabled() {
        return out;
    }
    for id in CounterId::ALL {
        let name = format!("{PREFIX}{}", id.as_str());
        write_family_header(&mut out, &name, "counter", "Torpedo monotone counter.");
        out.push_str(&format!("{name} {}\n", telemetry.counter(id)));
    }
    for id in HistogramId::ALL {
        let snap = telemetry.histogram(id);
        write_histogram(&mut out, id, &snap);
    }
    for kind in SpanKind::ALL {
        let (count, total_ns) = telemetry.span_totals(kind);
        let stem = format!("{PREFIX}span_{}", kind.as_str().replace('-', "_"));
        write_family_header(
            &mut out,
            &format!("{stem}_count"),
            "counter",
            "Spans recorded for this stage.",
        );
        out.push_str(&format!("{stem}_count {count}\n"));
        write_family_header(
            &mut out,
            &format!("{stem}_total_ns"),
            "counter",
            "Total nanoseconds recorded for this stage.",
        );
        out.push_str(&format!("{stem}_total_ns {total_ns}\n"));
    }
    write_family_header(
        &mut out,
        "torpedo_journal_dropped",
        "counter",
        "Span events overwritten in the journal ring.",
    );
    out.push_str(&format!(
        "torpedo_journal_dropped {}\n",
        telemetry.journal_dropped()
    ));
    out
}

/// Validate a text exposition and return its samples, in order, as
/// `(series, value)` pairs, where the series is the metric name followed by
/// its label set as written (`torpedo_execs_total`,
/// `torpedo_round_latency_ns_bucket{le="1024"}`). Every line must be a
/// comment (`# …`) or a `name{labels} value` sample with a valid metric
/// name and a non-NaN float value, and every sample must belong to a family
/// with a preceding `# TYPE` declaration — either exactly (counters,
/// gauges) or via the `_bucket`/`_sum`/`_count` suffixes of a declared
/// histogram or summary. Returns the first offending line on failure. This
/// is a deliberately small subset of the format spec — enough to catch the
/// classic mistakes (NaN values, bad names, missing or headerless series).
///
/// The suffix rule is deliberately strict: an earlier version accepted any
/// sample whose name merely *started with* a typed family, which let a
/// headerless `foo_extra` series hide behind `# TYPE foo counter` and
/// reach scrapers that then warn on every scrape.
pub fn check_exposition(text: &str) -> Result<Vec<(String, f64)>, String> {
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// Whether `name` is a sample of the declared `(family, kind)`.
    fn sample_of(name: &str, family: &str, kind: &str) -> bool {
        if name == family {
            return true;
        }
        if matches!(kind, "histogram" | "summary") {
            if let Some(suffix) = name.strip_prefix(family) {
                return matches!(suffix, "_bucket" | "_sum" | "_count");
            }
        }
        false
    }

    let mut typed_families: Vec<(String, String)> = Vec::new();
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let family = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_name(family) {
                    return Err(format!("line {}: bad family name {family:?}", lineno + 1));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {}: bad metric type {kind:?}", lineno + 1));
                }
                typed_families.push((family.to_string(), kind.to_string()));
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let name_end = line
            .find(|c: char| c == '{' || c.is_ascii_whitespace())
            .ok_or_else(|| format!("line {}: sample without value", lineno + 1))?;
        let name = &line[..name_end];
        if !valid_name(name) {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        let series_end = match line[name_end..].strip_prefix('{') {
            Some(labels) => {
                let close = labels
                    .find('}')
                    .ok_or_else(|| format!("line {}: unterminated label set", lineno + 1))?;
                name_end + close + 2
            }
            None => name_end,
        };
        let rest = &line[series_end..];
        let value_str = rest
            .split_whitespace()
            .next()
            .ok_or_else(|| format!("line {}: missing sample value", lineno + 1))?;
        let value: f64 = value_str
            .parse()
            .map_err(|_| format!("line {}: unparsable value {value_str:?}", lineno + 1))?;
        if value.is_nan() {
            return Err(format!("line {}: NaN sample value", lineno + 1));
        }
        if !typed_families
            .iter()
            .any(|(family, kind)| sample_of(name, family, kind))
        {
            return Err(format!(
                "line {}: sample {name:?} has no preceding # TYPE",
                lineno + 1
            ));
        }
        samples.push((line[..series_end].to_string(), value));
    }
    if samples.is_empty() {
        return Err("exposition contains no samples".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_exposition_is_minimal_and_valid() {
        let text = prometheus_exposition(&Telemetry::disabled());
        assert!(text.contains("torpedo_telemetry_enabled 0\n"));
        assert!(!text.contains("rounds_completed"));
        assert_eq!(
            check_exposition(&text),
            Ok(vec![("torpedo_telemetry_enabled".to_string(), 0.0)])
        );
    }

    /// Everything the registry holds reads back through the checker:
    /// counters, each histogram's count, sum, max and buckets, and the span
    /// aggregates.
    #[test]
    fn exposition_samples_read_back_the_registry() {
        let t = Telemetry::enabled();
        t.add(CounterId::ExecsTotal, 41);
        t.incr(CounterId::RoundsCompleted);
        t.record_span_ns(SpanKind::Round, 2_000_000);
        t.observe(HistogramId::ExecLatencyUs, 17);
        t.record_span_ns(SpanKind::Exec, 900);
        {
            let _oracle = t.span(SpanKind::Oracle);
        }
        let samples = check_exposition(&prometheus_exposition(&t)).unwrap();
        let value = |series: &str| {
            samples
                .iter()
                .find(|(s, _)| s == series)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("no sample {series}"))
        };
        assert_eq!(value("torpedo_telemetry_enabled"), 1.0);
        assert_eq!(value("torpedo_execs_total"), 41.0);
        assert_eq!(value("torpedo_rounds_completed"), 1.0);
        for id in CounterId::ALL {
            value(&format!("torpedo_{}", id.as_str()));
        }
        assert_eq!(value("torpedo_round_latency_ns_count"), 1.0);
        assert_eq!(value("torpedo_round_latency_ns_sum"), 2_000_000.0);
        assert_eq!(value("torpedo_round_latency_ns_max"), 2_000_000.0);
        assert_eq!(value("torpedo_exec_latency_us_max"), 17.0);
        let buckets = samples
            .iter()
            .filter(|(s, _)| s.starts_with("torpedo_round_latency_ns_bucket{"))
            .count();
        assert_eq!(buckets, crate::BUCKETS + 1, "finite buckets plus +Inf");
        assert_eq!(value("torpedo_span_exec_count"), 1.0);
        assert_eq!(value("torpedo_span_exec_total_ns"), 900.0);
        // record_span_ns bypasses the journal: only the guarded oracle span
        // landed there, and nothing was overwritten.
        assert_eq!(value("torpedo_span_oracle_count"), 1.0);
        assert_eq!(t.journal_events().len(), 1);
        assert_eq!(value("torpedo_journal_dropped"), 0.0);
    }

    #[test]
    fn enabled_exposition_has_cumulative_buckets_and_checks_clean() {
        let t = Telemetry::enabled();
        t.add(CounterId::ExecsTotal, 7);
        t.observe(HistogramId::RoundLatencyNs, 100);
        t.observe(HistogramId::RoundLatencyNs, 2_000);
        let text = prometheus_exposition(&t);
        assert!(text.contains("torpedo_execs_total 7\n"));
        // 100 lands in bucket le=1024, 2000 in le=4096; buckets are
        // cumulative.
        assert!(text.contains("torpedo_round_latency_ns_bucket{le=\"1024\"} 1\n"));
        assert!(text.contains("torpedo_round_latency_ns_bucket{le=\"4096\"} 2\n"));
        assert!(text.contains("torpedo_round_latency_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("torpedo_round_latency_ns_count 2\n"));
        assert!(text.contains("torpedo_round_latency_ns_p50 "));
        assert!(text.contains("# TYPE torpedo_round_latency_ns_max gauge\n"));
        assert!(text.contains("torpedo_round_latency_ns_max 2000\n"));
        assert!(check_exposition(&text).unwrap().len() > 20);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let t = Telemetry::enabled();
        // 100 observations all in the first round-latency bucket (bound
        // 1024).
        for _ in 0..100 {
            t.observe(HistogramId::RoundLatencyNs, 512);
        }
        let snap = t.histogram(HistogramId::RoundLatencyNs);
        let p50 = quantile_from_snapshot(HistogramId::RoundLatencyNs, &snap, 0.50);
        assert_eq!(p50, 512.0);
        // An empty histogram yields 0 for every quantile.
        let empty = t.histogram(HistogramId::ExecLatencyUs);
        assert_eq!(
            quantile_from_snapshot(HistogramId::ExecLatencyUs, &empty, 0.99),
            0.0
        );
    }

    #[test]
    fn overflow_quantile_falls_back_to_max() {
        let t = Telemetry::enabled();
        t.observe(HistogramId::ExecLatencyUs, u64::MAX / 2);
        let snap = t.histogram(HistogramId::ExecLatencyUs);
        let p99 = quantile_from_snapshot(HistogramId::ExecLatencyUs, &snap, 0.99);
        assert_eq!(p99, (u64::MAX / 2) as f64);
    }

    #[test]
    fn checker_rejects_malformed_expositions() {
        assert!(check_exposition("").is_err());
        assert!(check_exposition("# TYPE x counter\nx NaN\n").is_err());
        assert!(check_exposition("# TYPE x counter\n9bad 1\n").is_err());
        assert!(check_exposition("untyped_sample 1\n").is_err());
        assert!(check_exposition("# TYPE x flavour\nx 1\n").is_err());
        assert!(check_exposition("not an exposition").is_err());
        assert!(check_exposition("# TYPE x counter\nx{le=\"5\" 1\n").is_err());
        assert_eq!(
            check_exposition("# TYPE x counter\nx{le=\"5\"} 1\n"),
            Ok(vec![("x{le=\"5\"}".to_string(), 1.0)])
        );
    }

    #[test]
    fn checker_rejects_headerless_series_hiding_behind_a_typed_prefix() {
        // Pre-fix behaviour: `x_extra` was accepted because it merely
        // starts with the typed family `x`. Scrapers warn on such series.
        assert!(check_exposition("# TYPE x counter\nx_extra 1\n").is_err());
        // Histogram suffixes are legitimate only for histogram families…
        let hist = "# TYPE h histogram\nh_bucket{le=\"1\"} 0\nh_sum 0\nh_count 0\n";
        assert_eq!(check_exposition(hist).map(|samples| samples.len()), Ok(3));
        // …not for counters, and not arbitrary suffixes even then.
        assert!(check_exposition("# TYPE c counter\nc_bucket{le=\"1\"} 0\n").is_err());
        assert!(check_exposition("# TYPE h histogram\nh_overflow 1\n").is_err());
    }

    #[test]
    fn exposition_exports_saturation_counters() {
        let t = Telemetry::enabled();
        t.observe(HistogramId::ExecLatencyUs, u64::MAX / 2); // overflows
        let text = prometheus_exposition(&t);
        assert!(text.contains("# TYPE torpedo_exec_latency_us_overflow counter\n"));
        assert!(text.contains("torpedo_exec_latency_us_overflow 1\n"));
        assert!(text.contains("# TYPE torpedo_journal_dropped counter\n"));
        // The strict checker must accept the whole real exposition.
        assert!(check_exposition(&text).unwrap().len() > 20);
    }
}
