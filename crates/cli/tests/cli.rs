//! End-to-end tests of the CLI: parse + execute on fast commands.

use barre_cli::{execute, parse, Command};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn list_executes() {
    let cmd = parse(&args(&["list"])).unwrap();
    assert_eq!(execute(cmd), 0);
}

#[test]
fn table2_executes_scaled_and_paper() {
    assert_eq!(execute(parse(&args(&["table2"])).unwrap()), 0);
    assert_eq!(execute(parse(&args(&["table2", "--paper"])).unwrap()), 0);
}

#[test]
fn help_for_unknown_flags() {
    assert!(parse(&args(&["run", "--warp-drive"])).is_err());
}

#[test]
fn paper_flag_preserves_mode() {
    // `--mode` before `--paper` must survive the config swap.
    let cmd = parse(&args(&["table2", "--mode", "barre", "--paper"])).unwrap();
    match cmd {
        Command::Table2 { cfg } => {
            assert_eq!(cfg.topology.total_cus(), 256);
            assert_eq!(cfg.mode.label(), "Barre");
        }
        other => panic!("wrong command {other:?}"),
    }
}

#[test]
fn a_flag_the_command_would_ignore_exits_2_with_empty_stdout() {
    // `--app` is `run`'s flag; `sweep` takes `--apps` and used to drop
    // `--app` silently, running all 19 apps.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_barre"))
        .args(["sweep", "--app", "gups", "--smoke"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(stderr.contains("unknown flag --app for sweep"), "{stderr}");
}

#[test]
fn more_than_sixteen_chiplets_is_an_invalid_configuration() {
    // A GPU map names at most 16 chiplets; 17 used to panic while
    // building the machine (exit 101).
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_barre"))
        .args(["run", "--smoke", "--app", "gups", "--chiplets", "17"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        stderr
            .contains("error: invalid configuration: 17 chiplets exceed the GPU map's limit of 16"),
        "{stderr}"
    );
}
