//! The documentation layer is part of the protocol surface: these tests
//! keep `docs/protocol.md` in lockstep with the parser's verb table and
//! keep every relative link in the markdown docs resolvable, so the docs
//! cannot silently rot as the protocol grows.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/engine → crates → repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn protocol_doc_has_one_heading_per_parser_verb() {
    let doc = read(&repo_root().join("docs/protocol.md"));
    let headings: Vec<&str> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .map(str::trim)
        .collect();
    for verb in imin_engine::protocol::VERBS {
        assert!(
            headings.iter().any(|h| h == verb),
            "docs/protocol.md is missing a `## {verb}` section for a verb the \
             parser accepts (headings found: {headings:?})"
        );
    }
}

#[test]
fn protocol_doc_covers_the_documented_reply_fields() {
    // Spot-checks for the typed reply/error fields the protocol promises;
    // renaming one on the wire must force a docs update.
    let doc = read(&repo_root().join("docs/protocol.md"));
    for needle in [
        "retry_after_ms=",
        "lines=",
        "trace=1",
        "intervene=",
        "edges=",
        "mode=map",
        "backend=sketch",
        "intervention unsupported",
        "backend unsupported",
        "recomputed=",
        "imin_realisations_recomputed_total",
        "replayed=",
        "imin_realisations_replayed_total",
        "imin_pool_phase_seconds",
    ] {
        assert!(
            doc.contains(needle),
            "docs/protocol.md no longer mentions `{needle}`"
        );
    }
}

/// Extracts `](target)` markdown link targets, skipping absolute URLs and
/// pure-anchor links.
fn relative_links(markdown: &str) -> Vec<String> {
    let mut links = Vec::new();
    let mut rest = markdown;
    while let Some(start) = rest.find("](") {
        rest = &rest[start + 2..];
        let Some(end) = rest.find(')') else { break };
        let target = &rest[..end];
        rest = &rest[end..];
        if target.is_empty()
            || target.starts_with('#')
            || target.starts_with("http://")
            || target.starts_with("https://")
            || target.starts_with("mailto:")
        {
            continue;
        }
        // Drop any fragment: `protocol.md#query` checks `protocol.md`.
        let path = target.split('#').next().unwrap_or(target);
        if !path.is_empty() {
            links.push(path.to_string());
        }
    }
    links
}

#[test]
fn every_relative_link_in_the_docs_resolves() {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    let docs_dir = root.join("docs");
    for entry in std::fs::read_dir(&docs_dir).expect("read docs/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    assert!(files.len() >= 4, "expected README + ≥3 docs, got {files:?}");

    let mut broken = Vec::new();
    for file in &files {
        let base = file.parent().expect("file has a parent");
        for link in relative_links(&read(file)) {
            if !base.join(&link).exists() {
                broken.push(format!("{} → {link}", file.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken relative links:\n{}",
        broken.join("\n")
    );
}
