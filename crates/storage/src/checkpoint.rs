//! The on-disk checkpoint format used by the SSD baseline.
//!
//! A checkpoint is a flat binary blob: a small header (magic, iteration counter, layer
//! count) followed by, for every layer, its (already encrypted) parameter buffers length-
//! prefixed. The format deliberately mirrors what Darknet's `save_weights` produces plus
//! the AES-GCM trailers Plinius adds: the enclave encrypts each tensor, the blob is
//! assembled and written out through ocalls, and restore walks the same structure in
//! reverse.

use crate::StorageError;

/// Magic number identifying a checkpoint blob.
const MAGIC: u32 = 0x504c_434b; // "PLCK"

/// A decoded checkpoint: the iteration counter plus, per layer, the encrypted parameter
/// buffers exactly as the enclave produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointBlob {
    /// Training iteration at which the checkpoint was taken.
    pub iteration: u64,
    /// `layers[i][j]` is the encrypted bytes of tensor `j` of layer `i`.
    pub layers: Vec<Vec<Vec<u8>>>,
}

impl CheckpointBlob {
    /// Total size of the payload (sum of all encrypted tensors), excluding framing.
    pub fn payload_bytes(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.iter())
            .map(|t| t.len())
            .sum()
    }

    /// Number of layers carried by the checkpoint.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

/// Encoder/decoder for [`CheckpointBlob`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointCodec;

impl CheckpointCodec {
    /// Serialises a checkpoint into its on-disk representation.
    pub fn encode(blob: &CheckpointBlob) -> Vec<u8> {
        let mut out = Vec::with_capacity(blob.payload_bytes() + 64);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&blob.iteration.to_le_bytes());
        out.extend_from_slice(&(blob.layers.len() as u32).to_le_bytes());
        for layer in &blob.layers {
            out.extend_from_slice(&(layer.len() as u32).to_le_bytes());
            for tensor in layer {
                out.extend_from_slice(&(tensor.len() as u64).to_le_bytes());
                out.extend_from_slice(tensor);
            }
        }
        out
    }

    /// Parses an on-disk checkpoint. The blob comes from the host-owned SSD, so the
    /// counts it declares reserve no more entries than its remaining bytes can hold.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::MalformedCheckpoint`] on a bad magic number or truncation.
    pub fn decode(mut bytes: &[u8]) -> Result<CheckpointBlob, StorageError> {
        let malformed = |msg: &str| StorageError::MalformedCheckpoint(msg.to_owned());
        if bytes.len() < 16 {
            return Err(malformed("blob shorter than header"));
        }
        if take(&mut bytes).map(u32::from_le_bytes) != Some(MAGIC) {
            return Err(malformed("bad magic number"));
        }
        let truncated = || malformed("truncated checkpoint");
        let iteration = take(&mut bytes)
            .map(u64::from_le_bytes)
            .ok_or_else(truncated)?;
        let num_layers = take(&mut bytes)
            .map(u32::from_le_bytes)
            .ok_or_else(truncated)?;
        // Every layer starts with a 4-byte tensor count.
        let mut layers = Vec::with_capacity((num_layers as usize).min(bytes.len() / 4));
        for _ in 0..num_layers {
            let num_tensors = take(&mut bytes)
                .map(u32::from_le_bytes)
                .ok_or_else(truncated)?;
            // Every tensor starts with an 8-byte length.
            let mut tensors = Vec::with_capacity((num_tensors as usize).min(bytes.len() / 8));
            for _ in 0..num_tensors {
                let len = take(&mut bytes)
                    .map(u64::from_le_bytes)
                    .ok_or_else(truncated)?;
                let (tensor, rest) = usize::try_from(len)
                    .ok()
                    .and_then(|len| bytes.split_at_checked(len))
                    .ok_or_else(truncated)?;
                tensors.push(tensor.to_vec());
                bytes = rest;
            }
            layers.push(tensors);
        }
        Ok(CheckpointBlob { iteration, layers })
    }
}

/// Consumes `N` bytes from the front of `bytes`, or `None` if fewer remain.
fn take<const N: usize>(bytes: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = bytes.split_first_chunk()?;
    *bytes = rest;
    Some(*head)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_blob() -> CheckpointBlob {
        CheckpointBlob {
            iteration: 321,
            layers: vec![
                vec![
                    vec![1u8; 40],
                    vec![2u8; 8],
                    vec![3u8; 8],
                    vec![4u8; 8],
                    vec![5u8; 8],
                ],
                vec![
                    vec![9u8; 100],
                    vec![8u8; 12],
                    vec![7u8; 12],
                    vec![6u8; 12],
                    vec![5u8; 12],
                ],
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let blob = sample_blob();
        let bytes = CheckpointCodec::encode(&blob);
        let decoded = CheckpointCodec::decode(&bytes).unwrap();
        assert_eq!(decoded, blob);
        assert_eq!(decoded.iteration, 321);
        assert_eq!(decoded.num_layers(), 2);
        assert_eq!(blob.payload_bytes(), 40 + 8 * 4 + 100 + 12 * 4);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let blob = CheckpointBlob {
            iteration: 0,
            layers: vec![],
        };
        let bytes = CheckpointCodec::encode(&blob);
        assert_eq!(CheckpointCodec::decode(&bytes).unwrap(), blob);
    }

    #[test]
    fn bad_magic_and_truncation_are_rejected() {
        let blob = sample_blob();
        let mut bytes = CheckpointCodec::encode(&blob);
        // Bad magic.
        let mut corrupted = bytes.clone();
        corrupted[0] ^= 0xFF;
        assert!(CheckpointCodec::decode(&corrupted).is_err());
        // Truncations at various points.
        for cut in [4usize, 15, 20, bytes.len() - 3] {
            assert!(
                CheckpointCodec::decode(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
        // Declaring more tensors than present.
        let len = bytes.len();
        bytes.truncate(len - 1);
        assert!(CheckpointCodec::decode(&bytes).is_err());
    }
}
