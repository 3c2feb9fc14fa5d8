//! The simulated SGX enclave runtime.
//!
//! An [`Enclave`] models the aspects of Intel SGX that shape Plinius' design and
//! performance:
//!
//! * a **trusted memory budget** (the EPC, 93.5 MB usable on the paper's hardware):
//!   enclave allocations are tracked and any in-enclave work performed while the working
//!   set exceeds the EPC is charged an extra paging penalty, which is what produces the
//!   knee in Fig. 7 / Table I;
//! * **enclave transitions**: every `ecall`/`ocall` costs ~13'100 cycles, so chatty
//!   designs (e.g. SSD checkpointing through `fwrite` ocalls) pay for it;
//! * **`sgx_read_rand`**, key storage, and data **sealing** for the encryption engine;
//! * a **measurement** (hash of the enclave binary) used by the attestation workflow.
//!
//! The enclave does not execute machine code; instead, trusted computations are ordinary
//! Rust closures run under [`Enclave::ecall`], and the simulator accounts for their cost
//! through the `charge_*` methods.

use crate::SgxError;
use parking_lot::Mutex;
use plinius_crypto::{
    seal_into, sealed_len, AesGcm, CryptoError, EnginePolicy, Key, SealedView, Sha256, IV_LEN,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sim_clock::{ClockHandle, CostModel, Metric, StatsHandle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default maximum enclave heap size (the paper configures 8 GB).
pub const DEFAULT_HEAP_SIZE: u64 = 8 * 1024 * 1024 * 1024;
/// Default enclave stack size (8 MB in the paper).
pub const DEFAULT_STACK_SIZE: u64 = 8 * 1024 * 1024;

/// Builder for [`Enclave`] instances.
#[derive(Debug, Clone)]
pub struct EnclaveBuilder {
    binary: Vec<u8>,
    cost: CostModel,
    clock: Option<ClockHandle>,
    stats: Option<StatsHandle>,
    heap_size: u64,
    stack_size: u64,
    rng_seed: u64,
    crypto: Option<EnginePolicy>,
}

impl EnclaveBuilder {
    /// Starts building an enclave from the given "binary" (any byte string; its SHA-256
    /// becomes the enclave measurement, i.e. MRENCLAVE).
    pub fn new(binary: impl Into<Vec<u8>>) -> Self {
        EnclaveBuilder {
            binary: binary.into(),
            cost: CostModel::default(),
            clock: None,
            stats: None,
            heap_size: DEFAULT_HEAP_SIZE,
            stack_size: DEFAULT_STACK_SIZE,
            rng_seed: 0x5047_5845,
            crypto: None,
        }
    }

    /// Sets the hardware cost model (server profile).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Shares an existing simulation clock.
    pub fn clock(mut self, clock: ClockHandle) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Shares an existing statistics registry.
    pub fn stats(mut self, stats: StatsHandle) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Overrides the maximum enclave heap size.
    pub fn heap_size(mut self, bytes: u64) -> Self {
        self.heap_size = bytes;
        self
    }

    /// Overrides the enclave stack size.
    pub fn stack_size(mut self, bytes: u64) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Seeds the enclave's `sgx_read_rand` source (deterministic for tests).
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Pins the AES-GCM engine policy for every cipher context this enclave derives
    /// (see [`plinius_crypto::EnginePolicy`]). Defaults to the `PLINIUS_CRYPTO`
    /// environment variable (`auto` when unset): the widest hardware kernels the
    /// host supports (VAES + VPCLMULQDQ, then AES-NI + PCLMUL), the scalar
    /// table-driven engine elsewhere.
    pub fn crypto_policy(mut self, policy: EnginePolicy) -> Self {
        self.crypto = Some(policy);
        self
    }

    /// Creates the enclave (the equivalent of `sgx_create_enclave`).
    pub fn build(self) -> Enclave {
        let measurement = Sha256::digest(&self.binary);
        Enclave {
            inner: Arc::new(EnclaveInner {
                measurement,
                cost: self.cost,
                clock: self.clock.unwrap_or_default(),
                stats: self.stats.unwrap_or_default(),
                heap_size: self.heap_size,
                stack_size: self.stack_size,
                heap_used: AtomicU64::new(0),
                peak_heap: AtomicU64::new(0),
                keys: Mutex::new(HashMap::new()),
                gcm_cache: Mutex::new(HashMap::new()),
                crypto: self.crypto.unwrap_or_else(EnginePolicy::from_env),
                rng: Mutex::new(StdRng::seed_from_u64(self.rng_seed)),
                destroyed: AtomicU64::new(0),
            }),
        }
    }
}

#[derive(Debug)]
struct EnclaveInner {
    measurement: [u8; 32],
    cost: CostModel,
    clock: ClockHandle,
    stats: StatsHandle,
    heap_size: u64,
    stack_size: u64,
    heap_used: AtomicU64,
    peak_heap: AtomicU64,
    keys: Mutex<HashMap<String, Key>>,
    /// Warm AES-GCM contexts (key schedule + GHASH tables, engine-selected) per stored
    /// key name. Entries are invalidated whenever the underlying key changes, so a
    /// cached context never outlives its key.
    gcm_cache: Mutex<HashMap<String, Arc<AesGcm>>>,
    /// Engine policy every derived cipher context is built with.
    crypto: EnginePolicy,
    rng: Mutex<StdRng>,
    destroyed: AtomicU64,
}

/// A simulated SGX enclave. Cloning yields another handle to the same enclave.
#[derive(Debug, Clone)]
pub struct Enclave {
    inner: Arc<EnclaveInner>,
}

impl Enclave {
    /// Convenience constructor with default settings (see [`EnclaveBuilder`]).
    pub fn create(binary: impl Into<Vec<u8>>) -> Self {
        EnclaveBuilder::new(binary).build()
    }

    /// Returns a builder.
    pub fn builder(binary: impl Into<Vec<u8>>) -> EnclaveBuilder {
        EnclaveBuilder::new(binary)
    }

    /// The enclave measurement (MRENCLAVE): SHA-256 of the enclave binary.
    pub fn measurement(&self) -> [u8; 32] {
        self.inner.measurement
    }

    /// The cost model (server profile) this enclave runs on.
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost
    }

    /// The shared simulation clock.
    pub fn clock(&self) -> ClockHandle {
        Arc::clone(&self.inner.clock)
    }

    /// The shared statistics registry.
    pub fn stats(&self) -> StatsHandle {
        Arc::clone(&self.inner.stats)
    }

    /// Usable EPC size for this enclave in bytes.
    pub fn epc_usable_bytes(&self) -> u64 {
        self.inner.cost.epc_usable_bytes
    }

    /// Configured maximum heap size.
    pub fn heap_size(&self) -> u64 {
        self.inner.heap_size
    }

    /// Configured stack size.
    pub fn stack_size(&self) -> u64 {
        self.inner.stack_size
    }

    /// Whether [`Enclave::destroy`] has been called.
    pub fn is_destroyed(&self) -> bool {
        self.inner.destroyed.load(Ordering::Relaxed) != 0
    }

    /// Destroys the enclave: trusted memory is wiped and further ecalls fail.
    pub fn destroy(&self) {
        self.inner.destroyed.store(1, Ordering::Relaxed);
        self.inner.keys.lock().clear();
        self.inner.gcm_cache.lock().clear();
        self.inner.heap_used.store(0, Ordering::Relaxed);
    }

    // ---------------------------------------------------------------- transitions

    /// Performs an ecall: enters the enclave, runs `f`, exits. Both crossings are charged
    /// the enclave-transition cost of the active server profile.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::EnclaveDestroyed`] if the enclave has been destroyed.
    pub fn ecall<R>(&self, f: impl FnOnce() -> R) -> Result<R, SgxError> {
        if self.is_destroyed() {
            return Err(SgxError::EnclaveDestroyed);
        }
        self.inner.stats.add(Metric::SgxEcalls, 1);
        self.inner
            .clock
            .advance_ns(self.inner.cost.enclave_transition_ns());
        let out = f();
        self.inner
            .clock
            .advance_ns(self.inner.cost.enclave_transition_ns());
        Ok(out)
    }

    /// Performs an ocall from inside the enclave to the untrusted runtime.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::EnclaveDestroyed`] if the enclave has been destroyed.
    pub fn ocall<R>(&self, f: impl FnOnce() -> R) -> Result<R, SgxError> {
        if self.is_destroyed() {
            return Err(SgxError::EnclaveDestroyed);
        }
        self.inner.stats.add(Metric::SgxOcalls, 1);
        self.inner
            .clock
            .advance_ns(self.inner.cost.enclave_transition_ns());
        let out = f();
        self.inner
            .clock
            .advance_ns(self.inner.cost.enclave_transition_ns());
        Ok(out)
    }

    /// Number of ecalls performed so far.
    pub fn ecall_count(&self) -> u64 {
        self.inner.stats.get(Metric::SgxEcalls)
    }

    /// Number of ocalls performed so far.
    pub fn ocall_count(&self) -> u64 {
        self.inner.stats.get(Metric::SgxOcalls)
    }

    // ---------------------------------------------------------------- trusted memory

    /// Registers `bytes` of trusted (in-enclave) memory as allocated.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::OutOfEnclaveMemory`] if the allocation would exceed the
    /// configured enclave heap.
    pub fn alloc_trusted(&self, bytes: u64) -> Result<(), SgxError> {
        let new = self.inner.heap_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if new > self.inner.heap_size {
            self.inner.heap_used.fetch_sub(bytes, Ordering::Relaxed);
            return Err(SgxError::OutOfEnclaveMemory {
                requested: bytes,
                heap_size: self.inner.heap_size,
            });
        }
        self.inner.peak_heap.fetch_max(new, Ordering::Relaxed);
        Ok(())
    }

    /// Releases `bytes` of trusted memory previously registered with
    /// [`Enclave::alloc_trusted`].
    pub fn free_trusted(&self, bytes: u64) {
        let mut current = self.inner.heap_used.load(Ordering::Relaxed);
        loop {
            let new = current.saturating_sub(bytes);
            match self.inner.heap_used.compare_exchange(
                current,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
    }

    /// Current trusted working set in bytes.
    pub fn working_set(&self) -> u64 {
        self.inner.heap_used.load(Ordering::Relaxed)
    }

    /// Highest trusted working set observed since creation.
    pub fn peak_working_set(&self) -> u64 {
        self.inner.peak_heap.load(Ordering::Relaxed)
    }

    /// Whether the current working set exceeds the usable EPC (i.e. the SGX driver is
    /// paging and in-enclave work pays the thrashing penalty).
    pub fn beyond_epc(&self) -> bool {
        self.working_set() > self.epc_usable_bytes()
    }

    // ---------------------------------------------------------------- cost charging

    /// Charges the cost of AES-GCM work over `bytes` performed inside the enclave.
    pub fn charge_crypto(&self, bytes: u64) {
        let ns = self.inner.cost.crypto_ns(bytes, self.working_set());
        self.inner.clock.advance_ns(ns);
        self.inner.stats.add(Metric::SgxCryptoBytes, bytes);
        self.maybe_count_paging(bytes);
    }

    /// The simulated cost of AES-GCM work over `bytes` *without* advancing the clock;
    /// the statistics are still recorded exactly as [`Enclave::charge_crypto`] would.
    ///
    /// Used by the pipelined mirror: the sealing is modeled as a lane beside the
    /// training compute, and its cost is charged at the overlap join
    /// (`SimSpan::overlap`) instead of inline, so the simulated total reflects
    /// `max(compute, seal)` rather than their sum.
    pub fn charge_crypto_offline(&self, bytes: u64) -> u64 {
        let ns = self.inner.cost.crypto_ns(bytes, self.working_set());
        self.inner.stats.add(Metric::SgxCryptoBytes, bytes);
        self.maybe_count_paging(bytes);
        ns
    }

    /// Charges the cost of copying `bytes` from PM into enclave memory.
    pub fn charge_pm_read(&self, bytes: u64) {
        let ns = self.inner.cost.pm_read_ns(bytes, self.working_set());
        self.inner.clock.advance_ns(ns);
        self.inner.stats.add(Metric::SgxPmReadBytes, bytes);
        self.maybe_count_paging(bytes);
    }

    /// Charges the cost of writing `bytes` from the enclave out to PM.
    pub fn charge_pm_write(&self, bytes: u64) {
        let ns = self.inner.cost.pm_write_ns(bytes);
        self.inner.clock.advance_ns(ns);
        self.inner.stats.add(Metric::SgxPmWriteBytes, bytes);
    }

    /// Charges `flops` floating-point operations of in-enclave training compute.
    pub fn charge_compute(&self, flops: u64) {
        self.inner
            .clock
            .advance_ns(self.inner.cost.enclave_compute_ns(flops));
        self.inner.stats.add(Metric::SgxFlops, flops);
    }

    /// Charges the cost of staging `bytes` of training data into the enclave
    /// (copy + batch assembly, excluding decryption).
    pub fn charge_data_staging(&self, bytes: u64) {
        self.inner
            .clock
            .advance_ns(self.inner.cost.data_staging_ns(bytes));
        self.inner.stats.add(Metric::SgxStagedBytes, bytes);
    }

    fn maybe_count_paging(&self, bytes: u64) {
        if self.inner.cost.sgx_hardware && self.beyond_epc() {
            // One EPC page swap per 4 KB touched while beyond the limit.
            self.inner.stats.add(Metric::SgxEpcPageSwaps, bytes / 4096);
        }
    }

    // ---------------------------------------------------------------- randomness & keys

    /// Fills `buf` with random bytes (the `sgx_read_rand` SDK call).
    pub fn read_rand(&self, buf: &mut [u8]) {
        self.inner.rng.lock().fill_bytes(buf);
    }

    /// Generates a fresh random 128-bit key inside the enclave.
    pub fn generate_key_128(&self) -> Key {
        let mut rng = self.inner.rng.lock();
        Key::generate_128(&mut *rng)
    }

    /// Stores a named key in trusted memory (e.g. the model key provisioned over the
    /// attested channel). Any cached cipher context for the name is invalidated.
    pub fn store_key(&self, name: &str, key: Key) {
        // Lock order: keys, then gcm_cache (everywhere), so a concurrent
        // `gcm_for_key` can never re-insert a context derived from the old key.
        let mut keys = self.inner.keys.lock();
        keys.insert(name.to_owned(), key);
        self.inner.gcm_cache.lock().remove(name);
    }

    /// Retrieves a previously stored key.
    pub fn key(&self, name: &str) -> Option<Key> {
        self.inner.keys.lock().get(name).cloned()
    }

    /// Removes a stored key (and any cached cipher context derived from it).
    pub fn remove_key(&self, name: &str) -> Option<Key> {
        let mut keys = self.inner.keys.lock();
        self.inner.gcm_cache.lock().remove(name);
        keys.remove(name)
    }

    /// The AES-GCM engine policy this enclave builds cipher contexts with.
    pub fn crypto_policy(&self) -> EnginePolicy {
        self.inner.crypto
    }

    /// Returns a warm AES-GCM context for the named stored key, building it (key
    /// schedule + GHASH tables + engine selection per the enclave's policy) on first
    /// use and caching it until the key is re-provisioned or removed. Returns `None`
    /// if no key of that name is stored.
    ///
    /// The only place a stored key's context is built: the mirror, the SSD checkpoint,
    /// the VFS and the PM dataset fetch it once per save, restore or batch, so key
    /// expansion never recurs in a hot loop. Cloning the `Arc` allocates nothing.
    pub fn gcm_for_key(&self, name: &str) -> Option<Arc<AesGcm>> {
        if let Some(gcm) = self.inner.gcm_cache.lock().get(name) {
            return Some(Arc::clone(gcm));
        }
        // Build under the keys lock (keys before gcm_cache, as everywhere) so a
        // concurrent re-provision of the same name cannot leave a stale context
        // cached: store/remove also invalidate while holding the keys lock.
        let keys = self.inner.keys.lock();
        let key = keys.get(name)?;
        let gcm = Arc::new(key.gcm_with_policy(self.inner.crypto));
        Some(Arc::clone(
            self.inner
                .gcm_cache
                .lock()
                .entry(name.to_owned())
                .or_insert(gcm),
        ))
    }

    // ---------------------------------------------------------------- sealing

    /// Derives this enclave's sealing key (bound to its measurement, like
    /// `MRENCLAVE`-policy sealing in SGX).
    pub fn sealing_key(&self) -> Key {
        // The platform sealing secret is fixed for the simulated machine; binding it to
        // the measurement reproduces the property that only the same enclave binary can
        // unseal the data.
        let derived = plinius_crypto::hmac_sha256(
            b"plinius-simulated-platform-fuse-key",
            &self.inner.measurement,
        );
        Key::new(&derived[..16]).expect("16-byte key is always valid")
    }

    /// Derives a tenant-scoped sealing key: the platform sealing secret keyed over
    /// `measurement ‖ tenant`. Different tenants on the same enclave binary obtain
    /// cryptographically independent keys, so one tenant's sealed epochs fail
    /// authentication wholesale under any other tenant's key.
    pub fn tenant_sealing_key(&self, tenant: u64) -> Key {
        let mut message = [0u8; 40];
        message[..32].copy_from_slice(&self.inner.measurement);
        message[32..].copy_from_slice(&tenant.to_le_bytes());
        let derived = plinius_crypto::hmac_sha256(b"plinius-simulated-platform-fuse-key", &message);
        Key::new(&derived[..16]).expect("16-byte key is always valid")
    }

    /// Seals `data` so that only an enclave with the same measurement can recover it
    /// (the `sgx_seal_data` SDK call).
    ///
    /// # Errors
    ///
    /// Propagates [`CryptoError`] from the underlying AEAD.
    pub fn seal(&self, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.charge_crypto(data.len() as u64);
        let mut iv = [0u8; IV_LEN];
        self.read_rand(&mut iv);
        let mut sealed = vec![0u8; sealed_len(data.len())];
        let gcm = self.sealing_key().gcm_with_policy(self.inner.crypto);
        seal_into(&gcm, data, &self.inner.measurement, &iv, &mut sealed)?;
        Ok(sealed)
    }

    /// Unseals data previously sealed by an enclave with the same measurement.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AuthenticationFailed`] if the blob was sealed by a
    /// different enclave or tampered with.
    pub fn unseal(&self, sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.charge_crypto(sealed.len() as u64);
        let view = SealedView::parse(sealed)?;
        let mut data = vec![0u8; view.plaintext_len()];
        let gcm = self.sealing_key().gcm_with_policy(self.inner.crypto);
        view.open_into(&gcm, &self.inner.measurement, &mut data)?;
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::SimClock;

    #[test]
    fn measurement_is_binary_hash() {
        let a = Enclave::create(b"enclave-binary-a".to_vec());
        let b = Enclave::create(b"enclave-binary-b".to_vec());
        assert_eq!(a.measurement(), Sha256::digest(b"enclave-binary-a"));
        assert_ne!(a.measurement(), b.measurement());
    }

    #[test]
    fn ecall_and_ocall_charge_two_transitions_each() {
        let clock = SimClock::new();
        let enclave = Enclave::builder(b"bin".to_vec())
            .clock(Arc::clone(&clock))
            .cost_model(CostModel::sgx_eml_pm())
            .build();
        let t = enclave.cost_model().enclave_transition_ns();
        enclave.ecall(|| ()).unwrap();
        assert_eq!(clock.now_ns(), 2 * t);
        enclave.ocall(|| ()).unwrap();
        assert_eq!(clock.now_ns(), 4 * t);
        assert_eq!(enclave.ecall_count(), 1);
        assert_eq!(enclave.ocall_count(), 1);
    }

    #[test]
    fn destroyed_enclave_rejects_calls_and_wipes_keys() {
        let enclave = Enclave::create(b"bin".to_vec());
        enclave.store_key("model", Key::new(&[1u8; 16]).unwrap());
        enclave.destroy();
        assert!(enclave.is_destroyed());
        assert!(enclave.key("model").is_none());
        assert_eq!(
            enclave.ecall(|| ()).unwrap_err(),
            SgxError::EnclaveDestroyed
        );
        assert_eq!(
            enclave.ocall(|| ()).unwrap_err(),
            SgxError::EnclaveDestroyed
        );
    }

    #[test]
    fn trusted_memory_accounting_and_epc_boundary() {
        let enclave = Enclave::create(b"bin".to_vec());
        let epc = enclave.epc_usable_bytes();
        enclave.alloc_trusted(epc - 1024).unwrap();
        assert!(!enclave.beyond_epc());
        enclave.alloc_trusted(2048).unwrap();
        assert!(enclave.beyond_epc());
        enclave.free_trusted(2048);
        assert!(!enclave.beyond_epc());
        assert_eq!(enclave.peak_working_set(), epc + 1024);
    }

    #[test]
    fn heap_limit_is_enforced() {
        let enclave = Enclave::builder(b"bin".to_vec()).heap_size(1024).build();
        assert!(enclave.alloc_trusted(512).is_ok());
        let err = enclave.alloc_trusted(1024).unwrap_err();
        assert!(matches!(err, SgxError::OutOfEnclaveMemory { .. }));
        // Failed allocation must not leak accounting.
        assert_eq!(enclave.working_set(), 512);
    }

    #[test]
    fn free_trusted_never_underflows() {
        let enclave = Enclave::create(b"bin".to_vec());
        enclave.alloc_trusted(100).unwrap();
        enclave.free_trusted(1_000_000);
        assert_eq!(enclave.working_set(), 0);
    }

    #[test]
    fn crypto_charge_is_higher_beyond_epc_on_real_sgx() {
        let clock = SimClock::new();
        let enclave = Enclave::builder(b"bin".to_vec())
            .clock(Arc::clone(&clock))
            .cost_model(CostModel::sgx_eml_pm())
            .build();
        let bytes = 10 * 1024 * 1024;
        enclave.charge_crypto(bytes);
        let below = clock.now_ns();
        enclave
            .alloc_trusted(enclave.epc_usable_bytes() + 1)
            .unwrap();
        clock.reset();
        enclave.charge_crypto(bytes);
        let beyond = clock.now_ns();
        assert!(beyond > 2 * below, "below={below} beyond={beyond}");
        assert!(enclave.stats().get(Metric::SgxEpcPageSwaps) > 0);
    }

    #[test]
    fn paging_penalty_absent_in_simulation_mode() {
        let clock = SimClock::new();
        let enclave = Enclave::builder(b"bin".to_vec())
            .clock(Arc::clone(&clock))
            .cost_model(CostModel::eml_sgx_pm())
            .build();
        let bytes = 10 * 1024 * 1024;
        enclave.charge_crypto(bytes);
        let below = clock.now_ns();
        enclave
            .alloc_trusted(enclave.epc_usable_bytes() + 1)
            .unwrap();
        clock.reset();
        enclave.charge_crypto(bytes);
        assert_eq!(clock.now_ns(), below);
        assert_eq!(enclave.stats().get(Metric::SgxEpcPageSwaps), 0);
    }

    #[test]
    fn read_rand_is_deterministic_per_seed() {
        let a = Enclave::builder(b"bin".to_vec()).rng_seed(1).build();
        let b = Enclave::builder(b"bin".to_vec()).rng_seed(1).build();
        let c = Enclave::builder(b"bin".to_vec()).rng_seed(2).build();
        let mut ba = [0u8; 16];
        let mut bb = [0u8; 16];
        let mut bc = [0u8; 16];
        a.read_rand(&mut ba);
        b.read_rand(&mut bb);
        c.read_rand(&mut bc);
        assert_eq!(ba, bb);
        assert_ne!(ba, bc);
    }

    #[test]
    fn key_storage_round_trip() {
        let enclave = Enclave::create(b"bin".to_vec());
        let key = enclave.generate_key_128();
        enclave.store_key("model", key.clone());
        assert_eq!(enclave.key("model").unwrap().as_bytes(), key.as_bytes());
        assert!(enclave.key("missing").is_none());
        assert!(enclave.remove_key("model").is_some());
        assert!(enclave.key("model").is_none());
    }

    #[test]
    fn gcm_cache_is_shared_until_the_key_changes() {
        let enclave = Enclave::builder(b"bin".to_vec())
            .crypto_policy(EnginePolicy::Auto)
            .build();
        assert_eq!(enclave.crypto_policy(), EnginePolicy::Auto);
        assert!(enclave.gcm_for_key("model").is_none());

        enclave.store_key("model", Key::new(&[1u8; 16]).unwrap());
        let a = enclave.gcm_for_key("model").unwrap();
        let b = enclave.gcm_for_key("model").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm lookups share one context");

        // Re-provisioning the key invalidates the cached context...
        enclave.store_key("model", Key::new(&[2u8; 16]).unwrap());
        let c = enclave.gcm_for_key("model").unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "rotation must rebuild the context");
        // ...and the fresh context really uses the new key: bytes sealed under the
        // old context fail authentication under the new one.
        let iv = [3u8; 12];
        let (ct, tag) = a.encrypt(&iv, b"", b"payload").unwrap();
        assert!(c.decrypt(&iv, b"", &ct, &tag).is_err());

        enclave.remove_key("model");
        assert!(enclave.gcm_for_key("model").is_none());
    }

    #[test]
    fn explicit_crypto_policy_pins_the_engine() {
        let enclave = Enclave::builder(b"bin".to_vec())
            .crypto_policy(EnginePolicy::Scalar)
            .build();
        enclave.store_key("model", Key::new(&[1u8; 16]).unwrap());
        let gcm = enclave.gcm_for_key("model").unwrap();
        assert_eq!(gcm.engine_name(), "scalar");
    }

    #[test]
    fn sealing_is_bound_to_the_measurement() {
        let enclave = Enclave::create(b"binary-v1".to_vec());
        let sealed = enclave.seal(b"sealed model key").unwrap();
        assert_eq!(enclave.unseal(&sealed).unwrap(), b"sealed model key");
        // A different enclave (different measurement) cannot unseal.
        let other = Enclave::create(b"binary-v2".to_vec());
        assert!(other.unseal(&sealed).is_err());
        // Same binary, different instance: can unseal (MRENCLAVE policy).
        let same = Enclave::create(b"binary-v1".to_vec());
        assert_eq!(same.unseal(&sealed).unwrap(), b"sealed model key");
    }

    #[test]
    fn tenant_sealing_keys_are_independent_per_tenant_and_per_binary() {
        let enclave = Enclave::create(b"binary-v1".to_vec());
        // Deterministic per (measurement, tenant)...
        assert_eq!(
            enclave.tenant_sealing_key(3).as_bytes(),
            enclave.tenant_sealing_key(3).as_bytes()
        );
        // ...different across tenants, from the plain sealing key, and across binaries.
        assert_ne!(
            enclave.tenant_sealing_key(0).as_bytes(),
            enclave.tenant_sealing_key(1).as_bytes()
        );
        assert_ne!(
            enclave.tenant_sealing_key(0).as_bytes(),
            enclave.sealing_key().as_bytes()
        );
        let other = Enclave::create(b"binary-v2".to_vec());
        assert_ne!(
            enclave.tenant_sealing_key(7).as_bytes(),
            other.tenant_sealing_key(7).as_bytes()
        );
    }

    #[test]
    fn default_sizes_match_paper_configuration() {
        let enclave = Enclave::create(b"bin".to_vec());
        assert_eq!(enclave.heap_size(), 8 * 1024 * 1024 * 1024);
        assert_eq!(enclave.stack_size(), 8 * 1024 * 1024);
        assert_eq!(
            enclave.epc_usable_bytes(),
            (93.5f64 * 1024.0 * 1024.0) as u64
        );
    }
}
