//! Fuzz the text readers: the JSON value parser, the round-log parser, and
//! the metrics exposition checker. All three must return errors on
//! arbitrary input — any panic is a finding.

#![no_main]

use libfuzzer_sys::fuzz_target;

fn table() -> &'static [torpedo_prog::SyscallDesc] {
    static TABLE: std::sync::OnceLock<Vec<torpedo_prog::SyscallDesc>> = std::sync::OnceLock::new();
    TABLE.get_or_init(torpedo_prog::build_table)
}

fuzz_target!(|data: &[u8]| {
    if let Ok(text) = std::str::from_utf8(data) {
        let _ = torpedo_core::parse_json(text);
        let _ = torpedo_core::parse_log(text, table());
        let _ = torpedo_telemetry::check_exposition(text);
    }
});
