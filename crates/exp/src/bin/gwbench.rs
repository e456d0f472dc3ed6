//! `gwbench`: the single entry point for every paper experiment.
//!
//! See `ghostwriter_exp::cli` for the command reference.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ghostwriter_exp::cli::main_with_args(args));
}
