//! Scrapes of the nodes' `/metrics` endpoints (Prometheus text), merged
//! across the cluster.

use crate::stats::{histogram_quantile, mean};
use mahimahi_node::LocalCluster;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One scrape of every node: per-node plain samples, and bucket counts
/// summed across nodes.
#[derive(Debug, Clone)]
pub struct Scrape {
    pub at: Instant,
    /// `samples[node][name]`.
    pub samples: Vec<BTreeMap<String, f64>>,
    /// `histograms[name]` = cumulative `(le, count)` summed over nodes.
    pub histograms: BTreeMap<String, Vec<(f64, u64)>>,
}

impl Scrape {
    /// An empty scrape taken now.
    pub fn new() -> Self {
        Scrape {
            at: Instant::now(),
            samples: Vec::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Scrapes every node of an observed cluster.
    pub fn cluster(cluster: &LocalCluster, nodes: usize) -> Result<Scrape, String> {
        let mut scrape = Scrape::new();
        for node in 0..nodes {
            let addr = cluster
                .metrics_addr(node)
                .ok_or("cluster started without metrics endpoints")?;
            let body = fetch(addr).map_err(|e| format!("scrape of node {node}: {e}"))?;
            scrape.add(&body);
        }
        Ok(scrape)
    }

    /// Folds one node's exposition into the scrape.
    pub fn add(&mut self, body: &str) {
        let mut samples = BTreeMap::new();
        for line in body
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if let Some((base, le)) = name.split_once("_bucket{le=\"") {
                let le = le.trim_end_matches("\"}");
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or(f64::INFINITY)
                };
                let buckets = self.histograms.entry(base.to_string()).or_default();
                match buckets.iter_mut().find(|(b, _)| *b == bound) {
                    Some((_, count)) => *count += value as u64,
                    None => buckets.push((bound, value as u64)),
                }
            } else {
                samples.insert(name.to_string(), value);
            }
        }
        self.samples.push(samples);
    }

    /// The `q`-quantile of histogram `name` across nodes, in its unit.
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        self.histograms
            .get(name)
            .map_or(0.0, |buckets| histogram_quantile(buckets, q))
    }

    /// The largest per-node value of sample `name`.
    pub fn max(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter_map(|node| node.get(name).copied())
            .fold(0.0, f64::max)
    }

    /// The mean per-node value of sample `name`.
    pub fn mean(&self, name: &str) -> f64 {
        let values: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|node| node.get(name).copied())
            .collect();
        mean(&values)
    }
}

/// One HTTP GET of `/metrics`, returning the body.
fn fetch(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| std::io::Error::other("malformed metrics response"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expositions_merge_across_nodes() {
        let node =
            "# TYPE x gauge\nx 3\nh_bucket{le=\"0.001\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n";
        let mut scrape = Scrape::new();
        scrape.add(node);
        scrape.add(&node.replace("x 3", "x 5"));
        assert_eq!(scrape.max("x"), 5.0);
        assert_eq!(scrape.mean("x"), 4.0);
        assert_eq!(scrape.histograms["h"], vec![(0.001, 2), (f64::INFINITY, 4)]);
        assert!((scrape.quantile("h", 0.25) - 0.0005).abs() < 1e-12);
    }
}
