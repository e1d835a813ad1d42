//! The `tela-lint` CLI answers a missing baseline with status 2, and a
//! malformed one with status 2 and the JSON codec's message. A baseline nested past `MAX_DEPTH` used to
//! overflow the parser's stack and abort the process.

use std::path::PathBuf;
use std::process::Command;

use tela_trace::json::MAX_DEPTH;

/// An empty workspace under the temp dir whose `lint-baseline.json`
/// holds `baseline`; removed on drop.
struct Workspace(PathBuf);

impl Workspace {
    fn new(name: &str, baseline: &str) -> Workspace {
        let dir = std::env::temp_dir().join(format!("tela-lint-cli-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
        std::fs::write(dir.join("lint-baseline.json"), baseline).unwrap();
        Workspace(dir)
    }

    fn check(&self) -> (Option<i32>, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_tela-lint"))
            .arg("check")
            .arg("--root")
            .arg(&self.0)
            .output()
            .expect("run tela-lint");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_baseline_nested_past_the_limit_exits_2() {
    let workspace = Workspace::new("deep", &"[".repeat(300_000));
    let (code, stderr) = workspace.check();
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "invalid JSON at byte {}: nesting too deep",
            MAX_DEPTH + 1
        )),
        "{stderr}"
    );
}

#[test]
fn a_malformed_baseline_exits_2_and_a_valid_one_passes() {
    let workspace = Workspace::new("malformed", "{\"version\":1,\"rules\":{}} x");
    let (code, stderr) = workspace.check();
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("trailing content after document"),
        "{stderr}"
    );

    let workspace = Workspace::new("clean", "{\"version\":1,\"rules\":{}}");
    let (code, stderr) = workspace.check();
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn a_missing_baseline_exits_2() {
    let workspace = Workspace::new("missing", "");
    std::fs::remove_file(workspace.0.join("lint-baseline.json")).unwrap();
    let (code, stderr) = workspace.check();
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("no baseline at"), "{stderr}");
}
