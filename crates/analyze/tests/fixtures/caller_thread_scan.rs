//! Fixture: the `caller-thread-scan` rule must fire wherever a submitter
//! outside the HTTP frontend names `submit_or_scan`, and never on
//! quoted/commented copies or on names that merely contain it.
//!
//! Scanned by `tests/analyzer.rs` under pretend relpaths; the workspace
//! scanner skips this directory entirely.

pub fn quoted_entry_does_not_fire() -> usize {
    let a = "server.submit_or_scan(tenant, query, None, None) in a plain string";
    // comment copy: server.submit_or_scan(tenant, query, None, None)
    /* nor in a block comment: submit_or_scan */
    a.len()
}

pub fn longer_names_are_other_functions(server: &RagServer) {
    server.try_submit_or_scan_later();
    server.submit_or_scanner();
}

pub fn an_open_loop_generator_that_would_block(server: &RagServer, query: Vec<f32>) {
    let _ticket = server.submit_or_scan(TenantId(0), query, None, None);
}
