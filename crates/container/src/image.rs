//! Container images: references, manifests, the campus registry, and the
//! trusted-image allow-list.
//!
//! §3.3 of the paper: "Container images must pass SHA256 verification before
//! deployment, and the system maintains an allow list of trusted base images
//! to ensure security compliance." Both mechanisms are implemented here.
//!
//! Layer *metadata* carries the advertised transfer size (used by the
//! network model when a node pulls the image), while a small synthetic
//! content blob stands in for the real bytes so digest verification is real:
//! corrupting a blob in transit makes verification fail exactly as it would
//! with Docker content trust.

use crate::sha256::{Digest, Sha256};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::OnceLock;

/// A tagged, digest-pinned image reference, e.g.
/// `pytorch/pytorch:2.3-cuda12@sha256:…`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ImageRef {
    /// Repository, e.g. `pytorch/pytorch`.
    pub repository: String,
    /// Tag, e.g. `2.3-cuda12`.
    pub tag: String,
    /// Manifest digest (pins the exact content).
    pub digest: Digest,
}

impl fmt::Display for ImageRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}@{}", self.repository, self.tag, self.digest)
    }
}

/// One image layer: advertised wire size plus the synthetic content blob the
/// digest protects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Digest of `content`.
    pub digest: Digest,
    /// Size on the wire in bytes (drives simulated pull time).
    pub transfer_bytes: u64,
    /// Synthetic stand-in for the layer bytes (small, but really hashed).
    pub content: Vec<u8>,
}

impl Layer {
    /// Build a layer from synthetic content and an advertised wire size.
    pub fn new(content: Vec<u8>, transfer_bytes: u64) -> Self {
        Layer {
            digest: Sha256::digest(&content),
            transfer_bytes,
            content,
        }
    }

    /// Re-hash the content and compare against the recorded digest.
    pub fn verify(&self) -> bool {
        Sha256::digest(&self.content) == self.digest
    }
}

/// An image manifest: ordered layers plus default process config.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageManifest {
    /// Repository this manifest belongs to.
    pub repository: String,
    /// Tag.
    pub tag: String,
    /// Ordered layers.
    pub layers: Vec<Layer>,
    /// Default entrypoint if the job supplies none.
    pub default_entrypoint: Vec<String>,
}

impl ImageManifest {
    /// The manifest digest: hash over layer digests and identity — the value
    /// pinned by [`ImageRef::digest`].
    pub fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(self.repository.as_bytes());
        h.update(&[0]);
        h.update(self.tag.as_bytes());
        h.update(&[0]);
        for l in &self.layers {
            h.update(&l.digest.0);
        }
        h.finalize()
    }

    /// Total advertised transfer size.
    pub fn transfer_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.transfer_bytes).sum()
    }

    /// The pinned reference for this manifest.
    pub fn image_ref(&self) -> ImageRef {
        ImageRef {
            repository: self.repository.clone(),
            tag: self.tag.clone(),
            digest: self.digest(),
        }
    }

    /// Verify every layer's content hash.
    pub fn verify_layers(&self) -> Result<(), ImageError> {
        for (i, l) in self.layers.iter().enumerate() {
            if !l.verify() {
                return Err(ImageError::LayerDigestMismatch { layer: i });
            }
        }
        Ok(())
    }
}

/// Image subsystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// Reference not present in the registry.
    NotFound,
    /// Manifest digest does not match the pinned reference.
    ManifestDigestMismatch,
    /// A layer's content does not hash to its recorded digest.
    LayerDigestMismatch {
        /// Index of the corrupt layer.
        layer: usize,
    },
    /// The repository is not on the trusted-base allow list.
    NotAllowListed {
        /// Offending repository.
        repository: String,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::NotFound => write!(f, "image not found in registry"),
            ImageError::ManifestDigestMismatch => write!(f, "manifest digest mismatch"),
            ImageError::LayerDigestMismatch { layer } => {
                write!(f, "layer {layer} failed SHA256 verification")
            }
            ImageError::NotAllowListed { repository } => {
                write!(
                    f,
                    "repository '{repository}' is not on the trusted allow list"
                )
            }
        }
    }
}

impl std::error::Error for ImageError {}

/// The campus image registry plus the trusted-repository allow list.
#[derive(Debug, Clone, Default)]
pub struct ImageRegistry {
    manifests: HashMap<Digest, ImageManifest>,
    allow_list: HashSet<String>,
}

impl ImageRegistry {
    /// Empty registry with an empty allow list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trust a repository (e.g. `pytorch/pytorch`). Only allow-listed
    /// repositories can be deployed.
    pub fn allow_repository(&mut self, repository: impl Into<String>) {
        self.allow_list.insert(repository.into());
    }

    /// Is the repository trusted?
    pub fn is_allowed(&self, repository: &str) -> bool {
        self.allow_list.contains(repository)
    }

    /// Publish a manifest; returns the pinned reference.
    pub fn publish(&mut self, manifest: ImageManifest) -> ImageRef {
        let r = manifest.image_ref();
        self.manifests.insert(r.digest, manifest);
        r
    }

    /// Look up a manifest by pinned reference.
    pub fn manifest(&self, r: &ImageRef) -> Option<&ImageManifest> {
        self.manifests.get(&r.digest)
    }

    /// Full deployment-time admission check, in the order the paper
    /// describes: allow list, then manifest digest, then per-layer SHA256.
    ///
    /// `received` is the manifest as the node received it (possibly corrupted
    /// in transit); the check compares it against the pinned reference.
    pub fn admit(&self, r: &ImageRef, received: &ImageManifest) -> Result<(), ImageError> {
        if !self.is_allowed(&r.repository) {
            return Err(ImageError::NotAllowListed {
                repository: r.repository.clone(),
            });
        }
        if received.digest() != r.digest {
            return Err(ImageError::ManifestDigestMismatch);
        }
        received.verify_layers()
    }

    /// Number of published manifests.
    pub fn len(&self) -> usize {
        self.manifests.len()
    }

    /// True when the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.manifests.is_empty()
    }
}

/// Deterministic synthetic layer content for the standard catalogue and tests.
fn synthetic_content(seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.push((x & 0xFF) as u8);
    }
    out
}

/// A ready-made catalogue matching the paper's workloads: PyTorch training
/// images plus a Jupyter interactive image, all allow-listed.
pub fn standard_catalogue() -> (ImageRegistry, Vec<ImageRef>) {
    // Content-addressing the layers and manifests is ~30 µs of SHA-256 and
    // the result is constant: build it once per process, hand out clones.
    static CATALOGUE: OnceLock<(ImageRegistry, Vec<ImageRef>)> = OnceLock::new();
    CATALOGUE.get_or_init(build_standard_catalogue).clone()
}

fn build_standard_catalogue() -> (ImageRegistry, Vec<ImageRef>) {
    let mut reg = ImageRegistry::new();
    let mut refs = Vec::new();
    let catalogue: [(&str, &str, u64, &[&str]); 3] = [
        (
            "pytorch/pytorch",
            "2.3-cuda12",
            6_800_000_000,
            &["python", "train.py"],
        ),
        (
            "jupyter/gpu-notebook",
            "lab-4.2",
            4_200_000_000,
            &["jupyter", "lab", "--ip=0.0.0.0"],
        ),
        ("nvidia/cuda", "12.4-runtime", 2_900_000_000, &["bash"]),
    ];
    for (i, (repo, tag, size, entry)) in catalogue.into_iter().enumerate() {
        reg.allow_repository(repo);
        let layers = vec![
            Layer::new(synthetic_content(i as u64 * 3 + 1, 512), size * 7 / 10),
            Layer::new(synthetic_content(i as u64 * 3 + 2, 512), size * 2 / 10),
            Layer::new(synthetic_content(i as u64 * 3 + 3, 512), size / 10),
        ];
        let m = ImageManifest {
            repository: repo.into(),
            tag: tag.into(),
            layers,
            default_entrypoint: entry.iter().map(|s| s.to_string()).collect(),
        };
        refs.push(reg.publish(m));
    }
    (reg, refs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> ImageManifest {
        ImageManifest {
            repository: "pytorch/pytorch".into(),
            tag: "2.3".into(),
            layers: vec![
                Layer::new(synthetic_content(1, 256), 5_000_000_000),
                Layer::new(synthetic_content(2, 256), 1_000_000_000),
            ],
            default_entrypoint: vec!["python".into()],
        }
    }

    #[test]
    fn publish_and_admit() {
        let mut reg = ImageRegistry::new();
        reg.allow_repository("pytorch/pytorch");
        let m = sample_manifest();
        let r = reg.publish(m.clone());
        assert!(reg.manifest(&r).is_some());
        assert_eq!(reg.admit(&r, &m), Ok(()));
    }

    #[test]
    fn not_allow_listed_rejected() {
        let mut reg = ImageRegistry::new();
        let m = sample_manifest();
        let r = reg.publish(m.clone());
        assert_eq!(
            reg.admit(&r, &m),
            Err(ImageError::NotAllowListed {
                repository: "pytorch/pytorch".into()
            })
        );
    }

    #[test]
    fn corrupted_layer_rejected() {
        let mut reg = ImageRegistry::new();
        reg.allow_repository("pytorch/pytorch");
        let m = sample_manifest();
        let r = reg.publish(m.clone());
        // Flip one byte in transit.
        let mut corrupted = m.clone();
        corrupted.layers[1].content[17] ^= 0x01;
        // Manifest digest is over layer digests, which are unchanged — so the
        // corruption is caught by per-layer verification.
        assert_eq!(
            reg.admit(&r, &corrupted),
            Err(ImageError::LayerDigestMismatch { layer: 1 })
        );
    }

    #[test]
    fn substituted_layer_rejected_by_manifest_digest() {
        let mut reg = ImageRegistry::new();
        reg.allow_repository("pytorch/pytorch");
        let m = sample_manifest();
        let r = reg.publish(m.clone());
        // Attacker swaps a whole layer (content + matching digest).
        let mut swapped = m.clone();
        swapped.layers[0] = Layer::new(synthetic_content(99, 256), 5_000_000_000);
        assert_eq!(
            reg.admit(&r, &swapped),
            Err(ImageError::ManifestDigestMismatch)
        );
    }

    #[test]
    fn manifest_digest_depends_on_identity() {
        let m = sample_manifest();
        let mut m2 = m.clone();
        m2.tag = "2.4".into();
        assert_ne!(m.digest(), m2.digest());
    }

    #[test]
    fn transfer_bytes_sum() {
        let m = sample_manifest();
        assert_eq!(m.transfer_bytes(), 6_000_000_000);
    }

    #[test]
    fn standard_catalogue_admits_everything() {
        let (reg, refs) = standard_catalogue();
        assert_eq!(reg.len(), 3);
        for r in &refs {
            let m = reg.manifest(r).unwrap().clone();
            assert_eq!(reg.admit(r, &m), Ok(()));
        }
    }

    #[test]
    fn synthetic_content_deterministic() {
        assert_eq!(synthetic_content(5, 64), synthetic_content(5, 64));
        assert_ne!(synthetic_content(5, 64), synthetic_content(6, 64));
    }
}
