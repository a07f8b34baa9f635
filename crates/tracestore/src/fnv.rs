//! FNV-1a 64-bit hashing for chunk checksums and the whole-file content
//! digest: the workspace's one implementation, shared with the
//! experiment engine's job keys so digests feed straight into job
//! canonicalization.

pub use secpref_types::fnv::{fnv1a64, FNV_OFFSET};
