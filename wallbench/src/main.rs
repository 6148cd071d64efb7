//! The untraced benchmark binary: no counting allocator, no tracing.

fn main() {
    std::process::exit(eoml_wallbench::cli_main());
}
