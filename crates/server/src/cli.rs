//! The command-line vocabulary `trass` and `trass-client` share: the flag
//! map, the `--measure` and window parsers, and the result-line formats.
//! One definition each, so wire output diffs clean against embedded output
//! by construction (CI's `server-smoke` job still checks).

use std::collections::HashMap;
use trass_traj::Measure;

/// Splits `<cmd> [--key value]…` into the command and its flags; `None`
/// when there is no command, a key lacks its `--`, or a value is missing.
pub fn parse(args: &[String]) -> Option<(String, HashMap<String, String>)> {
    let cmd = args.first()?.clone();
    let mut flags = HashMap::new();
    let mut i = 1;
    while i < args.len() {
        let key = args[i].strip_prefix("--")?;
        let value = args.get(i + 1)?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Some((cmd, flags))
}

/// `--measure frechet|hausdorff|dtw`, Fréchet when absent.
pub fn parse_measure(flags: &HashMap<String, String>) -> Result<Measure, String> {
    flags.get("measure").map_or(Ok(Measure::Frechet), |m| m.parse())
}

/// `lon0,lat0,lon1,lat1` (see [`crate::protocol::window_mbr`] for the
/// rectangle it names).
pub fn parse_window(spec: &str) -> Result<[f64; 4], String> {
    let nums: Vec<f64> = spec
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad number in '{spec}'")))
        .collect::<Result<_, _>>()?;
    <[f64; 4]>::try_from(nums).map_err(|_| "expected lon0,lat0,lon1,lat1".to_string())
}

/// Similarity results, one `  <tid>\t<distance>` line each.
pub fn similarity_lines(results: &[(u64, f64)]) -> String {
    results.iter().map(|(tid, d)| format!("  {tid}\t{d:.6}\n")).collect()
}

/// Range results, one `  <tid>` line each.
pub fn range_lines(results: &[(u64, f64)]) -> String {
    results.iter().map(|(tid, _)| format!("  {tid}\n")).collect()
}
