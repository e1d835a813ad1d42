//! The `tela` CLI rejects a malformed flag value with status 2 and a
//! message that names the flag and the value, before it reads any input.

use std::process::Command;

fn tela(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tela"))
        .args(args)
        .output()
        .expect("run tela");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_flag_values_exit_2_naming_flag_and_value() {
    for (args, message) in [
        (
            &["gen", "--model", "openpose", "--slack", "1e1"][..],
            "error: --slack expects a u32, got \"1e1\"",
        ),
        (
            &["gen", "--certified", "-3"],
            "error: --certified expects a u64, got \"-3\"",
        ),
        (
            &["solve", "--steps", "5e5", "--trace", "missing.trace"],
            "error: --steps expects a u64, got \"5e5\"",
        ),
        (
            &["solve", "--timeout-ms", "1s"],
            "error: --timeout-ms expects a u64, got \"1s\"",
        ),
        (
            &["gen", "--model", "openpose", "--seed"],
            "error: --seed needs a value",
        ),
    ] {
        let (code, stderr) = tela(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), message, "{args:?}");
    }
}
