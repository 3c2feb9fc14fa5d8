//! Remote attestation and secure key provisioning (step ➋/➌ of the paper's Fig. 5).
//!
//! In the real system the data/model owner performs SGX remote attestation against the
//! enclave, establishes a secure channel and sends the AES-GCM encryption key through
//! it. The simulator reproduces the *structure* of that workflow:
//!
//! 1. the enclave produces a [`Report`] over caller-chosen report data;
//! 2. the (simulated) quoting enclave signs it into a [`Quote`] with a platform key;
//! 3. the [`DataOwner`] verifies the quote against the expected measurement and the
//!    attestation service's platform key;
//! 4. on success the owner provisions the model key into the enclave over the secure
//!    channel ([`DataOwner::provision_key`]), where it is stored in trusted memory and
//!    optionally sealed for later restarts.

use crate::{Enclave, SgxError};
use plinius_crypto::{hmac_sha256, Key};

/// Report data a caller can bind into an attestation report (64 bytes, as in SGX).
pub type ReportData = [u8; 64];

/// An enclave-signed report: the local attestation structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The enclave measurement (MRENCLAVE).
    pub measurement: [u8; 32],
    /// Caller-chosen data bound into the report (e.g. a channel public key).
    pub report_data: ReportData,
}

impl Report {
    /// Creates a report for the given enclave.
    pub fn for_enclave(enclave: &Enclave, report_data: ReportData) -> Self {
        Report {
            measurement: enclave.measurement(),
            report_data,
        }
    }

    fn signing_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(96);
        bytes.extend_from_slice(&self.measurement);
        bytes.extend_from_slice(&self.report_data);
        bytes
    }
}

/// A quote: a report signed by the platform's quoting enclave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The attested report.
    pub report: Report,
    /// The quoting enclave's signature (HMAC under the platform attestation key in this
    /// simulation).
    pub signature: [u8; 32],
}

/// The platform attestation service (stands in for the quoting enclave + IAS/DCAP).
#[derive(Debug, Clone)]
pub struct AttestationService {
    platform_key: Vec<u8>,
}

impl AttestationService {
    /// Creates an attestation service with the given platform secret.
    pub fn new(platform_key: impl Into<Vec<u8>>) -> Self {
        AttestationService {
            platform_key: platform_key.into(),
        }
    }

    /// Produces a quote for the given enclave and report data.
    pub fn quote(&self, enclave: &Enclave, report_data: ReportData) -> Quote {
        let report = Report::for_enclave(enclave, report_data);
        let signature = hmac_sha256(&self.platform_key, &report.signing_bytes());
        Quote { report, signature }
    }

    /// Verifies that a quote was produced by this platform.
    pub fn verify(&self, quote: &Quote) -> bool {
        hmac_sha256(&self.platform_key, &quote.report.signing_bytes()) == quote.signature
    }
}

/// The model/dataset owner: the remote party of Fig. 5 that attests the enclave and
/// provisions the encryption key.
#[derive(Debug, Clone)]
pub struct DataOwner {
    /// The AES-GCM key protecting the owner's model and training data.
    model_key: Key,
    /// The enclave measurement the owner expects (obtained from the enclave build).
    expected_measurement: [u8; 32],
}

impl DataOwner {
    /// Creates an owner holding `model_key` and trusting enclaves whose measurement
    /// equals `expected_measurement`.
    pub fn new(model_key: Key, expected_measurement: [u8; 32]) -> Self {
        DataOwner {
            model_key,
            expected_measurement,
        }
    }

    /// The owner's model key (used by tests and by the owner-side data preparation).
    pub fn model_key(&self) -> &Key {
        &self.model_key
    }

    /// Runs the attestation + key-provisioning workflow of Fig. 5 (steps ➋ and ➌).
    ///
    /// On success the enclave holds the model key under the name `key_name`.
    ///
    /// # Errors
    ///
    /// * [`SgxError::AttestationFailed`] if the quote does not verify or the measurement
    ///   differs from the expected one;
    /// * [`SgxError::EnclaveDestroyed`] if the enclave is gone.
    pub fn provision_key(
        &self,
        service: &AttestationService,
        enclave: &Enclave,
        key_name: &str,
    ) -> Result<(), SgxError> {
        // The enclave binds fresh channel-establishment randomness into the report.
        let mut report_data = [0u8; 64];
        enclave.read_rand(&mut report_data);
        let quote = service.quote(enclave, report_data);
        if !service.verify(&quote) {
            return Err(SgxError::AttestationFailed(
                "quote signature did not verify".into(),
            ));
        }
        if quote.report.measurement != self.expected_measurement {
            return Err(SgxError::AttestationFailed(
                "enclave measurement does not match the expected binary".into(),
            ));
        }
        // Secure-channel transfer of the key into trusted memory (an ecall).
        let key = self.model_key.clone();
        enclave.ecall(|| {
            enclave.store_key(key_name, key);
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn owner_for(enclave: &Enclave) -> DataOwner {
        let mut rng = StdRng::seed_from_u64(11);
        DataOwner::new(Key::generate_128(&mut rng), enclave.measurement())
    }

    #[test]
    fn quote_verifies_under_same_platform() {
        let enclave = Enclave::create(b"plinius-enclave".to_vec());
        let service = AttestationService::new(b"platform-secret".to_vec());
        let quote = service.quote(&enclave, [7u8; 64]);
        assert!(service.verify(&quote));
        assert_eq!(quote.report.measurement, enclave.measurement());
    }

    #[test]
    fn quote_from_other_platform_rejected() {
        let enclave = Enclave::create(b"plinius-enclave".to_vec());
        let service_a = AttestationService::new(b"platform-a".to_vec());
        let service_b = AttestationService::new(b"platform-b".to_vec());
        let quote = service_a.quote(&enclave, [0u8; 64]);
        assert!(!service_b.verify(&quote));
    }

    #[test]
    fn tampered_report_data_breaks_signature() {
        let enclave = Enclave::create(b"plinius-enclave".to_vec());
        let service = AttestationService::new(b"platform".to_vec());
        let mut quote = service.quote(&enclave, [1u8; 64]);
        quote.report.report_data[0] ^= 1;
        assert!(!service.verify(&quote));
    }

    #[test]
    fn key_provisioning_succeeds_for_expected_measurement() {
        let enclave = Enclave::create(b"plinius-enclave".to_vec());
        let service = AttestationService::new(b"platform".to_vec());
        let owner = owner_for(&enclave);
        owner
            .provision_key(&service, &enclave, "model-key")
            .unwrap();
        let provisioned = enclave.key("model-key").unwrap();
        assert_eq!(provisioned.as_bytes(), owner.model_key().as_bytes());
        // The transfer went through an ecall.
        assert_eq!(enclave.ecall_count(), 1);
    }

    #[test]
    fn key_provisioning_rejects_wrong_enclave() {
        let trusted = Enclave::create(b"trusted-binary".to_vec());
        let rogue = Enclave::create(b"rogue-binary".to_vec());
        let service = AttestationService::new(b"platform".to_vec());
        let owner = owner_for(&trusted);
        let err = owner
            .provision_key(&service, &rogue, "model-key")
            .unwrap_err();
        assert!(matches!(err, SgxError::AttestationFailed(_)));
        assert!(rogue.key("model-key").is_none());
    }

    #[test]
    fn key_provisioning_fails_on_destroyed_enclave() {
        let enclave = Enclave::create(b"plinius-enclave".to_vec());
        let service = AttestationService::new(b"platform".to_vec());
        let owner = owner_for(&enclave);
        enclave.destroy();
        assert_eq!(
            owner.provision_key(&service, &enclave, "k").unwrap_err(),
            SgxError::EnclaveDestroyed
        );
    }
}
