//! `status_probe`: fetch the campaign status endpoint over plain TCP.
//!
//! `status_probe ADDR [PATH]` fetches `PATH` (default `/`) from a live
//! campaign's status server, prints the body, and exits non-zero unless
//! the server answered `200`, e.g. `status_probe 127.0.0.1:7070 /metrics`
//! for the Prometheus text exposition.

use std::net::SocketAddr;

use torpedo_telemetry::server::fetch;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some(addr) => probe(addr, args.get(1).map_or("/", String::as_str)),
        None => {
            eprintln!("usage: status_probe ADDR [PATH]");
            2
        }
    };
    std::process::exit(code);
}

fn probe(addr: &str, path: &str) -> i32 {
    let addr: SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("status_probe: bad address '{addr}': {e}");
            return 2;
        }
    };
    match fetch(addr, path) {
        Ok((status, body)) => {
            eprintln!("status_probe: {status}");
            println!("{body}");
            i32::from(!status.contains("200"))
        }
        Err(e) => {
            eprintln!("status_probe: fetch failed: {e}");
            1
        }
    }
}
