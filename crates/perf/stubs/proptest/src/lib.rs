//! Resolution-only placeholder (see Cargo.toml).
