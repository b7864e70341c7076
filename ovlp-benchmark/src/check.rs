//! `--check BENCHMARK.json`: the manifest follows the format's rules
//! (names, units, bounds, limits) and states exactly the workloads and
//! metrics this program measures; the recorded results name the machine
//! they ran on.

use crate::metrics::{END_TO_END, LAYERS, WORKLOADS};
use overlap_sim::serve::json::{self, Obj, Value};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

const MAX_BYTES: usize = 64 << 10;

pub fn run(manifest: &Path) -> ExitCode {
    let results = manifest
        .parent()
        .unwrap_or(Path::new("."))
        .join("ovlp-benchmark/RESULTS.json");
    let mut problems = match std::fs::read_to_string(manifest) {
        Ok(text) => check_manifest(&text),
        Err(e) => vec![format!("{}: {e}", manifest.display())],
    };
    match std::fs::read_to_string(&results) {
        Ok(text) => problems.extend(check_results(&text)),
        Err(e) => problems.push(format!("{}: {e}", results.display())),
    }
    if problems.is_empty() {
        println!(
            "{} and {}: ok ({} workloads, {} end-to-end and {} per-layer metrics)",
            manifest.display(),
            results.display(),
            WORKLOADS.len(),
            END_TO_END.len(),
            LAYERS.len()
        );
        for m in END_TO_END {
            println!(
                "  {:<20} {:<8} bound {:<5} {}",
                m.name, m.unit, m.bound, m.what
            );
        }
        for l in LAYERS {
            println!(
                "  {:<20} {:<8} moves {} on {}: {}",
                l.name,
                l.unit,
                l.moves,
                l.on.join(", "),
                l.what
            );
        }
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("check: {p}");
        }
        ExitCode::FAILURE
    }
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn is_rel_path(s: &str) -> bool {
    (1..=200).contains(&s.len())
        && !s.starts_with('/')
        && s.split('/').all(|seg| seg != "..")
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
}

fn keys_exactly(o: &Obj, want: &[&str], what: &str, problems: &mut Vec<String>) {
    let have: BTreeSet<&str> = o.keys().collect();
    let want_set: BTreeSet<&str> = want.iter().copied().collect();
    if have != want_set {
        problems.push(format!("{what} has keys {have:?}, expected {want_set:?}"));
    }
}

/// Every format rule on the manifest, plus agreement with the
/// definitions in `metrics.rs`.
pub fn check_manifest(text: &str) -> Vec<String> {
    let mut p = Vec::new();
    if text.len() > MAX_BYTES {
        p.push(format!(
            "manifest is {} bytes, over {MAX_BYTES}",
            text.len()
        ));
    }
    let doc = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("manifest is not JSON: {e}")],
    };
    let Some(o) = doc.as_obj() else {
        return vec!["manifest is not an object".to_string()];
    };
    let top = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    keys_exactly(o, &top, "manifest", &mut p);
    let strings = |k: &str| -> Vec<String> {
        o.get(k)
            .and_then(Value::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|v| v.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default()
    };
    let list_len = |k: &str| o.get(k).and_then(Value::as_arr).map_or(0, <[Value]>::len);

    let paths = strings("paths");
    if !(1..=16).contains(&paths.len()) || paths.len() != list_len("paths") {
        p.push("paths must be 1 to 16 strings".to_string());
    }
    for path in &paths {
        if !is_rel_path(path) {
            p.push(format!("path `{path}` is not a plain relative path"));
        }
    }
    let command = strings("command");
    if !(1..=32).contains(&command.len()) || command.len() != list_len("command") {
        p.push("command must be 1 to 32 strings".to_string());
    }
    for arg in &command {
        if arg.len() > 200 || arg.starts_with('/') || arg.split('/').any(|s| s == "..") {
            p.push(format!(
                "command argument `{arg}` is too long or leaves the repository"
            ));
        }
        if arg.contains('/') && !paths.iter().any(|dir| arg.starts_with(&format!("{dir}/"))) {
            p.push(format!(
                "command argument `{arg}` names a file outside paths"
            ));
        }
    }
    match o.get("run_seconds").and_then(Value::as_u64) {
        Some(1..=60) => {}
        _ => p.push("run_seconds must be a whole number from 1 to 60".to_string()),
    }

    let objects = |k: &str| -> Vec<Obj> {
        o.get(k)
            .and_then(Value::as_arr)
            .map(|a| a.iter().filter_map(|v| v.as_obj().cloned()).collect())
            .unwrap_or_default()
    };
    let text_of = |x: &Obj, k: &str| x.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let mut names = BTreeSet::new();

    let workloads = objects("workloads");
    if !(2..=8).contains(&workloads.len()) {
        p.push("there must be 2 to 8 workloads".to_string());
    }
    for w in &workloads {
        keys_exactly(w, &["name", "why"], "a workload", &mut p);
        let (name, why) = (text_of(w, "name"), text_of(w, "why"));
        if !is_name(&name) || !names.insert(name.clone()) {
            p.push(format!("workload name `{name}` is invalid or repeated"));
        }
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            p.push(format!(
                "workload `{name}`: why must be one line of at most 200 characters"
            ));
        }
        match WORKLOADS.iter().find(|d| d.name == name) {
            Some(d) if d.why == why => {}
            Some(_) => p.push(format!("workload `{name}`: why differs from metrics.rs")),
            None => p.push(format!("workload `{name}` is not run by this benchmark")),
        }
    }
    if workloads.len() != WORKLOADS.len() {
        p.push(format!(
            "{} workloads listed, {} run",
            workloads.len(),
            WORKLOADS.len()
        ));
    }

    let mut metric_names = BTreeSet::new();
    let e2e = objects("end_to_end");
    if !(1..=16).contains(&e2e.len()) {
        p.push("there must be 1 to 16 end-to-end metrics".to_string());
    }
    let mut setup_bound = None;
    let mut max_bound: f64 = 0.0;
    for m in &e2e {
        keys_exactly(
            m,
            &["name", "unit", "better", "bound"],
            "an end-to-end metric",
            &mut p,
        );
        let (name, unit, better) = (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better"));
        let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(f64::NAN);
        if !is_name(&name) || !metric_names.insert(name.clone()) {
            p.push(format!("metric name `{name}` is invalid or repeated"));
        }
        if !is_unit(&unit) {
            p.push(format!("{name}: bad unit `{unit}`"));
        }
        if !(bound > 0.0 && bound <= 0.25) {
            p.push(format!("{name}: bound {bound} is not within (0, 0.25]"));
        }
        max_bound = max_bound.max(bound);
        if name == "setup_s" {
            setup_bound = Some(bound);
            if unit != "s" || better != "lower" {
                p.push("setup_s must be in s with lower better".to_string());
            }
        }
        match END_TO_END.iter().find(|d| d.name == name) {
            Some(d) if d.unit == unit && d.better.name() == better && d.bound == bound => {}
            Some(_) => p.push(format!(
                "{name}: unit, direction or bound differs from metrics.rs"
            )),
            None => p.push(format!("{name} is not measured by this benchmark")),
        }
    }
    match setup_bound {
        None => p.push("setup_s is missing".to_string()),
        Some(b) if b < max_bound => p.push("setup_s must have the largest bound".to_string()),
        Some(_) => {}
    }
    if e2e.len() != END_TO_END.len() {
        p.push(format!(
            "{} end-to-end metrics listed, {} measured",
            e2e.len(),
            END_TO_END.len()
        ));
    }

    let layers = objects("per_layer");
    if !(1..=128).contains(&layers.len()) {
        p.push("there must be 1 to 128 per-layer metrics".to_string());
    }
    for m in &layers {
        keys_exactly(m, &["name", "unit", "better"], "a per-layer metric", &mut p);
        let (name, unit, better) = (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better"));
        if !is_name(&name) || !metric_names.insert(name.clone()) {
            p.push(format!("metric name `{name}` is invalid or repeated"));
        }
        if !is_unit(&unit) {
            p.push(format!("{name}: bad unit `{unit}`"));
        }
        match LAYERS.iter().find(|d| d.name == name) {
            Some(d) if d.unit == unit && d.better.name() == better => {
                // the layer must say which end-to-end metric it moves, where
                if !END_TO_END.iter().any(|e| e.name == d.moves)
                    || !d.on.iter().all(|w| WORKLOADS.iter().any(|x| x.name == *w))
                {
                    p.push(format!(
                        "{name}: names no existing end-to-end metric or workload"
                    ));
                }
            }
            Some(_) => p.push(format!("{name}: unit or direction differs from metrics.rs")),
            None => p.push(format!("{name} is not measured by this benchmark")),
        }
    }
    if layers.len() != LAYERS.len() {
        p.push(format!(
            "{} per-layer metrics listed, {} measured",
            layers.len(),
            LAYERS.len()
        ));
    }
    p
}

/// The recorded results: a machine block and, per workload, a value
/// for every metric.
pub fn check_results(text: &str) -> Vec<String> {
    let mut p = Vec::new();
    let doc = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("results are not JSON: {e}")],
    };
    let Some(o) = doc.as_obj() else {
        return vec!["results are not an object".to_string()];
    };
    match o.get("machine").and_then(Value::as_obj) {
        Some(m) => {
            if m.get("hardware_threads")
                .and_then(Value::as_u64)
                .is_none_or(|n| n == 0)
            {
                p.push("machine.hardware_threads is missing".to_string());
            }
            if m.get("commit")
                .and_then(Value::as_str)
                .is_none_or(str::is_empty)
            {
                p.push("machine.commit is missing".to_string());
            }
            if m.get("seed").and_then(Value::as_u64).is_none() {
                p.push("machine.seed is missing".to_string());
            }
        }
        None => p.push("results have no machine block".to_string()),
    }
    let workloads = o.get("workloads").and_then(Value::as_obj);
    for w in WORKLOADS {
        let entry = workloads
            .and_then(|ws| ws.get(w.name))
            .and_then(Value::as_obj);
        for (section, names) in [
            (
                "end_to_end",
                END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
            ("per_layer", LAYERS.iter().map(|m| m.name).collect()),
        ] {
            let values = entry.and_then(|e| e.get(section)).and_then(Value::as_obj);
            for name in names {
                if values
                    .and_then(|v| v.get(name))
                    .and_then(Value::as_f64)
                    .is_none()
                {
                    p.push(format!("results lack {}.{section}.{name}", w.name));
                }
            }
        }
    }
    p
}

/// The results document written by `--record`.
pub fn results_document(seed: u64, seconds: f64, workloads: Obj) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut machine = Obj::new();
    machine.set("hardware_threads", Value::Num(threads as f64));
    machine.set("os", Value::str(std::env::consts::OS));
    machine.set("arch", Value::str(std::env::consts::ARCH));
    machine.set("commit", Value::str(commit));
    machine.set("seed", Value::Num(seed as f64));
    machine.set("seconds", Value::Num(seconds));
    let mut doc = Obj::new();
    doc.set("schema", Value::str("ovlp.benchmark-results.v1"));
    doc.set("machine", Value::Obj(machine));
    doc.set("workloads", Value::Obj(workloads));
    let mut s = String::new();
    pretty(&Value::Obj(doc), 0, &mut s);
    s.push('\n');
    s
}

/// Indented JSON: one key per line, scalars and arrays inline.
fn pretty(v: &Value, depth: usize, out: &mut String) {
    match v {
        Value::Obj(o) if !o.is_empty() => {
            out.push_str("{\n");
            let keys: Vec<&str> = o.keys().collect();
            for (i, k) in keys.iter().enumerate() {
                out.push_str(&"  ".repeat(depth + 1));
                out.push_str(&Value::str(*k).to_string());
                out.push_str(": ");
                pretty(o.get(k).expect("key from the object"), depth + 1, out);
                if i + 1 < keys.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(depth));
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn committed_manifest_and_results_pass() {
        assert_eq!(
            check_manifest(&repo_file("../BENCHMARK.json")),
            Vec::<String>::new()
        );
        assert_eq!(
            check_results(&repo_file("RESULTS.json")),
            Vec::<String>::new()
        );
    }

    #[test]
    fn format_violations_are_reported() {
        let good = repo_file("../BENCHMARK.json");
        for (from, to, needle) in [
            ("\"run_seconds\": ", "\"run_seconds\": 9", "run_seconds"),
            ("\"name\": \"wall_s\"", "\"name\": \"wall s\"", "invalid"),
            ("\"bound\": 0.25", "\"bound\": 0.5", "bound"),
            ("\"better\": \"lower\"", "\"better\": \"down\"", "direction"),
            ("\"paths\": [", "\"paths\": [\"/abs\", ", "relative"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from}");
            let problems = check_manifest(&bad);
            assert!(
                problems.iter().any(|p| p.contains(needle)),
                "{to}: {problems:?}"
            );
        }
        let no_machine = repo_file("RESULTS.json").replacen("\"machine\"", "\"host\"", 1);
        assert!(check_results(&no_machine)
            .iter()
            .any(|p| p.contains("machine")));
    }

    #[test]
    fn names_units_and_paths() {
        assert!(is_name("ns_per_event") && is_name("9a.b-c") && !is_name("_x") && !is_name(""));
        assert!(is_unit("items/s") && is_unit("%") && !is_unit("per second"));
        assert!(is_rel_path("ovlp-benchmark") && !is_rel_path("../x") && !is_rel_path("/x"));
    }
}
