//! `spn` — the command-line toolflow of the reproduction.
//!
//! Mirrors the paper's SPFlow-to-hardware flow as a single binary: read
//! SPFlow-exported models as text or generate NIPS benchmark and
//! random ones, inspect their compiled datapath and resource footprint,
//! run (hardware-exact) inference, simulate the accelerator card, and
//! emit the structural netlist.
//! Run `spn` with no arguments for usage.

mod args;
mod commands;
mod csv;

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(tokens) {
        Ok(result) => {
            for (path, contents) in &result.files {
                if let Err(e) = std::fs::write(path, contents) {
                    eprintln!("error: cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
            print!("{}", result.stdout);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
