//! The traced benchmark binary: the same program with the counting
//! allocator installed, so the traced run can report bytes per tile while
//! the untraced binary never pays the bookkeeping.

#[global_allocator]
static ALLOC: eoml_obs::resource::CountingAlloc = eoml_obs::resource::CountingAlloc::new();

fn main() {
    std::process::exit(eoml_wallbench::cli_main());
}
