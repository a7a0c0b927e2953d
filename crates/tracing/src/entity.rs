//! The traced-entity runtime (paper §3.1–§3.2, §4.3, §5.1, §6.3).
//!
//! "In our scheme an entity will be traced only if it specifically
//! issues a request for this." The sequence implemented here:
//!
//! 1. create the trace topic at a TDN (credentials, descriptor,
//!    discovery restrictions, lifetime);
//! 2. register with a broker over the registration constrained topic,
//!    signing the request to prove credential possession;
//! 3. receive the sealed session grant, subscribe to the
//!    broker→entity session channel;
//! 4. mint a delegation token over a **freshly generated key pair**
//!    and hand it to the broker (§4.3);
//! 5. optionally exchange a secret trace key (confidential traces,
//!    §5.1) and/or a symmetric session key (§6.3 signing
//!    optimization);
//! 6. answer pings and report state transitions and load.

use crate::channels;
use crate::config::{SigningMode, TracingConfig, SESSION_LIFETIME_MS, TOKEN_LIFETIME_MS};
use crate::error::TracingError;
use crate::Result;
use nb_broker::BrokerClient;
use nb_crypto::cert::Credential;
use nb_crypto::hybrid::SealedEnvelope;
use nb_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use nb_crypto::{SessionKey, Uuid};
use nb_tdn::TdnCluster;
use nb_transport::clock::SharedClock;
use nb_wire::codec::{Decode, Encode};
use nb_wire::payload::{DiscoveryRestrictions, SessionGrant, TraceKeyMaterial};
use nb_wire::token::{AuthorizationToken, Rights, CLOCK_SKEW_MS};
use nb_wire::trace::{topics, EntityState, LoadInformation};
use nb_wire::{Message, Payload, Topic};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Options controlling how an entity requests tracing.
pub struct EntityOptions {
    /// The entity's identifier.
    pub entity_id: String,
    /// The entity's CA-issued credential.
    pub credential: Credential,
    /// The hosting broker's public key (from secure broker
    /// discovery) — keys are sealed to it.
    pub broker_key: RsaPublicKey,
    /// Who may discover the trace topic.
    pub restrictions: DiscoveryRestrictions,
    /// RSA per-message signatures or the §6.3 HMAC optimization.
    pub signing_mode: SigningMode,
    /// Encrypt traces with a secret trace key (§5.1).
    pub secured: bool,
    /// Scheme configuration.
    pub config: TracingConfig,
    /// RNG seed.
    pub seed: u64,
}

struct EntityInner {
    id: String,
    credential: Credential,
    client: BrokerClient,
    clock: SharedClock,
    config: TracingConfig,
    trace_topic: Uuid,
    session_id: Uuid,
    session_channel: Topic,
    broker_key: RsaPublicKey,
    state: Mutex<EntityState>,
    secured: bool,
    mac_key: Mutex<Option<Vec<u8>>>,
    delegate: Mutex<RsaKeyPair>,
    /// The delegation token last sent; the pump sends a fresh one once
    /// it passes half its life.
    token: Mutex<Option<AuthorizationToken>>,
    rng: Mutex<StdRng>,
    stop: AtomicBool,
    pings_answered: AtomicU64,
    /// Signalled after every answered ping (see
    /// [`TracedEntity::wait_for_pings`]).
    ping_notify: Mutex<()>,
    ping_cv: Condvar,
}

/// A running traced entity.
pub struct TracedEntity {
    inner: Arc<EntityInner>,
}

impl TracedEntity {
    /// Performs the full §3.1–§3.2 start-up sequence over an attached
    /// broker client, then spawns the ping-answering pump.
    pub fn start(
        client: BrokerClient,
        tdns: &TdnCluster,
        clock: SharedClock,
        opts: EntityOptions,
    ) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let timeout = Duration::from_secs(10);

        // 1. Trace-topic creation at the TDN; the topic lives as long
        //    as the entity (lifetime 0 = unbounded).
        let advertisement = tdns.create_topic(
            &opts.credential.certificate,
            &topics::descriptor_for_entity(&opts.entity_id),
            opts.restrictions.clone(),
            0,
        )?;
        let trace_topic = advertisement.topic_id;

        // 2. Subscribe to the registration reply channel, then send
        //    the signed registration. The request is resent on timeout
        //    (lossy links); the engine grants idempotently.
        client.subscribe(channels::registration_reply(&opts.entity_id), timeout)?;
        let attempts = 6u32;
        let per_attempt = timeout / attempts;
        let mut session: Option<Uuid> = None;
        'register: for _ in 0..attempts {
            let mut reg = client.make_message(
                topics::registration(),
                Payload::TraceRegistration {
                    entity_id: opts.entity_id.clone(),
                    credentials: opts.credential.certificate.clone(),
                    advertisement: Box::new(advertisement.clone()),
                },
            );
            reg.sign(&opts.credential)?;
            let request_id = reg.id;
            client.send_message(&reg)?;

            // 3. Await the sealed grant for this attempt.
            let deadline = std::time::Instant::now() + per_attempt;
            loop {
                let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                if remaining.is_zero() {
                    continue 'register; // resend
                }
                let Ok(msg) = client.next_message(remaining) else {
                    continue 'register;
                };
                if msg.correlation_id != request_id {
                    continue;
                }
                match msg.payload {
                    Payload::RegistrationAccepted { sealed } => {
                        let bytes = sealed.open(&opts.credential.private_key)?;
                        let grant = SessionGrant::from_bytes(&bytes)?;
                        if grant.request_id != request_id {
                            return Err(TracingError::AuthenticationFailed(
                                "grant correlates to a different request",
                            ));
                        }
                        session = Some(grant.session_id);
                        break 'register;
                    }
                    Payload::RegistrationRejected { reason } => {
                        return Err(TracingError::RegistrationRejected(reason));
                    }
                    _ => continue,
                }
            }
        }
        let session_id = session.ok_or(TracingError::Timeout("registration response"))?;

        // 4. Subscribe to the broker→entity session channel (§3.2).
        client.subscribe(
            topics::broker_to_entity(&opts.entity_id, &trace_topic, &session_id),
            timeout,
        )?;

        let session_channel = topics::entity_to_broker(&trace_topic, &session_id);
        let delegate = RsaKeyPair::generate(opts.config.rsa_bits, &mut rng)?;

        let inner = Arc::new(EntityInner {
            id: opts.entity_id,
            credential: opts.credential,
            client,
            clock,
            config: opts.config,
            trace_topic,
            session_id,
            session_channel,
            broker_key: opts.broker_key,
            state: Mutex::new(EntityState::Initializing),
            secured: opts.secured,
            mac_key: Mutex::new(None),
            delegate: Mutex::new(delegate),
            token: Mutex::new(None),
            rng: Mutex::new(rng),
            stop: AtomicBool::new(false),
            pings_answered: AtomicU64::new(0),
            ping_notify: Mutex::new(()),
            ping_cv: Condvar::new(),
        });
        let entity = TracedEntity { inner };

        // 5. Delegate publication rights to the broker (§4.3).
        entity.send_delegation_token()?;

        // 6. Optional key exchanges.
        if opts.signing_mode == SigningMode::SymmetricKey {
            entity.enable_symmetric_mode()?;
        }
        if opts.secured {
            entity.send_trace_key()?;
        }
        if entity.inner.config.session_keys {
            entity.announce_session_key()?;
        }

        // 7. Announce readiness and start answering pings.
        entity.set_state(EntityState::Ready)?;
        entity.spawn_pump();
        Ok(entity)
    }

    /// The TDN-issued trace topic.
    pub fn trace_topic(&self) -> Uuid {
        self.inner.trace_topic
    }

    /// The broker-issued session id.
    pub fn session_id(&self) -> Uuid {
        self.inner.session_id
    }

    /// The entity identifier.
    pub fn id(&self) -> &str {
        &self.inner.id
    }

    /// Pings answered so far.
    pub fn pings_answered(&self) -> u64 {
        self.inner.pings_answered.load(Ordering::Relaxed)
    }

    /// Blocks until this entity has answered at least `n` pings (true)
    /// or `timeout` elapses (false). Event-driven: the pump signals a
    /// condition variable after each answered ping, so the caller
    /// wakes on the ping itself rather than on a sleep-poll interval.
    pub fn wait_for_pings(&self, n: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.inner.ping_notify.lock();
        loop {
            if self.inner.pings_answered.load(Ordering::SeqCst) >= n {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            self.inner
                .ping_cv
                .wait_for(&mut guard, deadline.duration_since(now));
        }
    }

    /// The entity's current lifecycle state.
    pub fn state(&self) -> EntityState {
        *self.inner.state.lock()
    }

    /// Authenticates and sends a message on the entity→broker session
    /// channel (§4.2 / §6.3).
    fn send_authed(&self, payload: Payload) -> Result<()> {
        let mut msg = self
            .inner
            .client
            .make_message(self.inner.session_channel.clone(), payload);
        // Trace contexts ride outside the signed/MACed region, so
        // attaching one never perturbs authentication.
        if let Some(ctx) = self.inner.config.telemetry.mint() {
            msg = msg.with_trace(ctx);
        }
        authenticate_message(&self.inner, &mut msg)?;
        self.inner.client.send_message(&msg)?;
        Ok(())
    }

    /// Mints and delivers a fresh delegation token (§4.3). Also used
    /// to refresh "once a token is closer to expiration".
    pub fn send_delegation_token(&self) -> Result<()> {
        let now = self.inner.clock.now_ms();
        let token = {
            let delegate = self.inner.delegate.lock();
            AuthorizationToken::issue(
                &self.inner.credential,
                self.inner.trace_topic,
                delegate.public.clone(),
                Rights::Publish,
                now.saturating_sub(CLOCK_SKEW_MS),
                now + TOKEN_LIFETIME_MS,
            )?
        };
        *self.inner.token.lock() = Some(token.clone());
        self.send_authed(Payload::DelegationToken { token })
    }

    /// Rotates the delegate key pair and issues a new token.
    pub fn refresh_token(&self) -> Result<()> {
        let fresh = {
            let mut rng = self.inner.rng.lock();
            RsaKeyPair::generate(self.inner.config.rsa_bits, &mut *rng)?
        };
        *self.inner.delegate.lock() = fresh;
        self.send_delegation_token()
    }

    /// Switches entity→broker authentication to HMAC under a sealed
    /// shared key (§6.3).
    pub fn enable_symmetric_mode(&self) -> Result<()> {
        let mut key = vec![0u8; 32];
        self.inner.rng.lock().fill_bytes(&mut key);
        let sealed = self.seal_to_broker(&key)?;
        // The transition message itself is RSA-signed.
        let mut msg = self.inner.client.make_message(
            self.inner.session_channel.clone(),
            Payload::SymmetricKeySetup { sealed },
        );
        msg.sign(&self.inner.credential)?;
        self.inner.client.send_message(&msg)?;
        *self.inner.mac_key.lock() = Some(key);
        Ok(())
    }

    /// Mints a fresh trace session key, seals it to the hosting
    /// broker and announces it — the asymmetric half of the
    /// amortized-RSA handshake. The engine installs the key and tags
    /// every subsequent trace publication with an HMAC under it, so
    /// the per-trace hot path never touches RSA again until rotation.
    ///
    /// The announcement itself is RSA-signed (like the §6.3
    /// symmetric-key setup): the broker must know the key came from
    /// the credentialed entity, not a bystander.
    pub fn announce_session_key(&self) -> Result<()> {
        let now = self.inner.clock.now_ms();
        let key = SessionKey::mint(
            self.inner.trace_topic,
            now,
            SESSION_LIFETIME_MS,
            self.inner.config.session_max_messages,
            &mut *self.inner.rng.lock(),
        );
        let sealed = self.seal_to_broker(&key.to_bytes())?;
        let mut msg = self.inner.client.make_message(
            self.inner.session_channel.clone(),
            Payload::SessionKeyAnnounce { sealed },
        );
        msg.sign(&self.inner.credential)?;
        self.inner.client.send_message(&msg)?;
        Ok(())
    }

    /// Generates the secret trace key and routes it, sealed, to the
    /// broker (§5.1). Traces are encrypted from then on.
    pub fn send_trace_key(&self) -> Result<()> {
        let mut key = vec![0u8; 24]; // 192-bit AES, the paper's choice
        self.inner.rng.lock().fill_bytes(&mut key);
        let material = TraceKeyMaterial::aes192(key, self.inner.config.trace_cipher);
        let sealed = self.seal_to_broker(&material.to_bytes())?;
        self.send_authed(Payload::TraceKeyDelivery { sealed })
    }

    /// Seals `plain` to the hosting broker's public key.
    fn seal_to_broker(&self, plain: &[u8]) -> Result<SealedEnvelope> {
        let mut rng = self.inner.rng.lock();
        Ok(SealedEnvelope::seal(
            &self.inner.broker_key,
            plain,
            nb_crypto::aes::KeySize::Aes192,
            &mut *rng,
        )?)
    }

    /// Reports a lifecycle state transition (§3.3).
    pub fn set_state(&self, to: EntityState) -> Result<()> {
        let from = {
            let mut state = self.inner.state.lock();
            let prev = *state;
            *state = to;
            Some(prev)
        };
        self.send_authed(Payload::StateReport { from, to })
    }

    /// Reports host load (§3.3 "changes in both memory and CPU
    /// utilization").
    pub fn report_load(&self, load: LoadInformation) -> Result<()> {
        self.send_authed(Payload::LoadReport { load })
    }

    /// Disables tracing (REVERTING_TO_SILENT_MODE) and stops the pump.
    pub fn go_silent(&self) -> Result<()> {
        self.send_authed(Payload::SilentModeRequest)?;
        self.stop();
        Ok(())
    }

    /// Stops answering pings (simulates a crash for failure-detection
    /// tests).
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
    }

    fn spawn_pump(&self) {
        let inner = Arc::clone(&self.inner);
        std::thread::Builder::new()
            .name(format!("entity-{}-pump", inner.id))
            .spawn(move || {
                let entity = TracedEntity {
                    inner: Arc::clone(&inner),
                };
                let mut last_setup = std::time::Instant::now();
                loop {
                    if inner.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    // §4.3: the token is refreshed "once a token is closer
                    // to expiration", with the same delegate key. Without
                    // it the hosting broker drops every probe, key
                    // delivery and trace as spurious once the token lapses.
                    let refresh_due = inner
                        .token
                        .lock()
                        .as_ref()
                        .is_some_and(|token| token.near_expiry(inner.clock.now_ms(), 0.5));
                    if refresh_due {
                        let _ = entity.send_delegation_token();
                    }
                    // Loss recovery: until the first ping proves the broker
                    // holds our delegation token (it only pings joined
                    // sessions), periodically re-send the setup bundle.
                    // Every setup message is idempotent at the engine.
                    //
                    // This must run *before* blocking on the receive: an
                    // un-joined session gets no pings, so when the setup
                    // bundle is lost every receive times out and a retry
                    // gated behind a successful receive would never fire.
                    if inner.pings_answered.load(Ordering::Relaxed) == 0
                        && last_setup.elapsed() > Duration::from_millis(1500)
                    {
                        last_setup = std::time::Instant::now();
                        let _ = entity.send_delegation_token();
                        if inner.mac_key.lock().is_some() {
                            let _ = entity.enable_symmetric_mode();
                        }
                        if inner.secured {
                            let _ = entity.send_trace_key();
                        }
                        // A lost announcement leaves the engine on the
                        // token path; each retry mints a fresh key and the
                        // engine adopts the newest.
                        if inner.config.session_keys {
                            let _ = entity.announce_session_key();
                        }
                        let state = *inner.state.lock();
                        let _ = entity.send_authed(Payload::StateReport {
                            from: None,
                            to: state,
                        });
                    }
                    let msg = match inner.client.next_message(Duration::from_millis(50)) {
                        Ok(m) => m,
                        Err(nb_broker::BrokerError::Timeout) => continue,
                        Err(_) => return,
                    };
                    if let Payload::Ping { seq, sent_at_ms } = msg.payload {
                        // §3.3: the response echoes both the number and the
                        // timestamp of the ping.
                        let state = *inner.state.lock();
                        let mut reply = inner.client.make_message(
                            inner.session_channel.clone(),
                            Payload::PingResponse {
                                seq,
                                echo_sent_at_ms: sent_at_ms,
                                state,
                            },
                        );
                        // Return-path propagation: the response travels on
                        // the ping's own trace so the engine's Consume span
                        // closes the loop in one causal chain.
                        reply.trace = msg.trace;
                        if authenticate_message(&inner, &mut reply).is_ok()
                            && inner.client.send_message(&reply).is_ok()
                        {
                            inner.pings_answered.fetch_add(1, Ordering::SeqCst);
                            // Holding the notify lock across the signal
                            // closes the missed-wakeup window against
                            // wait_for_pings' check-then-wait.
                            let _guard = inner.ping_notify.lock();
                            inner.ping_cv.notify_all();
                        }
                    }
                }
            })
            .expect("spawn entity pump");
    }
}

fn authenticate_message(inner: &EntityInner, msg: &mut Message) -> Result<()> {
    let mac_key = inner.mac_key.lock();
    match mac_key.as_ref() {
        Some(key) => {
            msg.mac_with(key);
            Ok(())
        }
        None => {
            msg.sign(&inner.credential)?;
            Ok(())
        }
    }
}

impl std::fmt::Debug for TracedEntity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TracedEntity({}, topic={})",
            self.inner.id, self.inner.trace_topic
        )
    }
}
