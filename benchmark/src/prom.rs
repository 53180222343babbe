//! Reader for the Prometheus text the server exports on `GET /metrics`.
//!
//! A per-layer count is the difference between two scrapes of a series,
//! summed over its label sets, so a series split by `route` or `reason`
//! still reads as one number.

use std::collections::BTreeMap;

/// Sample values of one scrape, keyed by series name, label sets summed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    totals: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses exposition text. Comment lines, exemplar suffixes
    /// (`# {trace_id=..} v`) and lines without a numeric value are skipped.
    pub fn parse(text: &str) -> Scrape {
        let mut totals = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let sample = line.split(" # ").next().unwrap_or(line);
            let name_end = sample
                .find(|c: char| c == '{' || c.is_whitespace())
                .unwrap_or(sample.len());
            let name = &sample[..name_end];
            // The value follows the label block, which may hold spaces
            // inside quoted label values.
            let rest = match sample[name_end..].strip_prefix('{') {
                Some(labels) => match labels.rfind('}') {
                    Some(end) => &labels[end + 1..],
                    None => continue,
                },
                None => &sample[name_end..],
            };
            let Some(value) = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
            else {
                continue;
            };
            *totals.entry(name.to_string()).or_insert(0.0) += value;
        }
        Scrape { totals }
    }

    /// A series' total; a series not yet registered reads as zero.
    pub fn get(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// `self - earlier` for one series.
    pub fn delta(&self, earlier: &Scrape, name: &str) -> f64 {
        self.get(name) - earlier.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# TYPE create_http_shed_total counter
create_http_shed_total{reason=\"route_limit\",route=\"/search\"} 1
create_http_shed_total{reason=\"max_connections\",route=\"(none)\"} 2
# TYPE create_pool_jobs_executed_total counter
create_pool_jobs_executed_total 40
# TYPE create_query_seconds histogram
create_query_seconds_bucket{le=\"0.001\"} 3 # {trace_id=\"00000000000000ab\"} 0.0004
create_query_seconds_bucket{le=\"+Inf\"} 4
create_query_seconds_sum 0.0125
create_query_seconds_count 4
";

    const AFTER: &str = "\
create_http_shed_total{reason=\"route_limit\",route=\"/search\"} 1
create_http_shed_total{reason=\"max_connections\",route=\"(none)\"} 2
create_pool_jobs_executed_total 1320
create_query_seconds_count 644
create_compaction_runs_total 4
create_odd_label{note=\"a } b\"} 5
";

    #[test]
    fn sums_label_sets_and_skips_comments_and_exemplars() {
        let s = Scrape::parse(BEFORE);
        assert_eq!(s.get("create_http_shed_total"), 3.0);
        assert_eq!(s.get("create_pool_jobs_executed_total"), 40.0);
        assert_eq!(s.get("create_query_seconds_bucket"), 7.0);
        assert_eq!(s.get("create_query_seconds_sum"), 0.0125);
        assert_eq!(s.get("never_registered"), 0.0);
    }

    #[test]
    fn delta_between_scrapes() {
        let (a, b) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        assert_eq!(b.delta(&a, "create_pool_jobs_executed_total"), 1280.0);
        assert_eq!(b.delta(&a, "create_http_shed_total"), 0.0);
        assert_eq!(b.delta(&a, "create_query_seconds_count"), 640.0);
        // a series that first appears in the later scrape counts from zero
        assert_eq!(b.delta(&a, "create_compaction_runs_total"), 4.0);
        assert_eq!(b.get("create_odd_label"), 5.0);
    }
}
