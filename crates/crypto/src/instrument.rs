//! Hot-path timing instrumentation.
//!
//! Every public RSA and AES operation records its wall-clock latency
//! into a histogram on the [`nb_metrics::global`] registry. Handles
//! are resolved once through `LazyLock`, so the per-operation overhead
//! is a few relaxed atomic increments — negligible next to a modular
//! exponentiation. Metric names are catalogued in
//! `docs/OBSERVABILITY.md` under the `crypto.*` family.

use std::sync::LazyLock;

use nb_metrics::{Counter, Histogram};

macro_rules! op_histogram {
    ($static_name:ident, $metric:literal) => {
        pub(crate) static $static_name: LazyLock<Histogram> =
            LazyLock::new(|| nb_metrics::global().histogram($metric));
    };
}

macro_rules! op_counter {
    ($static_name:ident, $metric:literal) => {
        pub(crate) static $static_name: LazyLock<Counter> =
            LazyLock::new(|| nb_metrics::global().counter($metric));
    };
}

op_histogram!(RSA_SIGN_US, "crypto.rsa.sign_us");
op_histogram!(RSA_VERIFY_US, "crypto.rsa.verify_us");
op_histogram!(RSA_ENCRYPT_US, "crypto.rsa.encrypt_us");
op_histogram!(RSA_DECRYPT_US, "crypto.rsa.decrypt_us");
op_histogram!(RSA_KEYGEN_US, "crypto.rsa.keygen_us");
op_histogram!(AES_ENCRYPT_US, "crypto.aes.encrypt_us");
op_histogram!(AES_DECRYPT_US, "crypto.aes.decrypt_us");
op_histogram!(AES_CTR_US, "crypto.aes.ctr_us");

op_counter!(SESSION_INSTALLED, "crypto.session.installed");
op_counter!(SESSION_REVOKED, "crypto.session.revoked");
op_counter!(SESSION_TAGGED, "crypto.session.tagged");
op_counter!(SESSION_VERIFIED, "crypto.session.verified");
op_counter!(SESSION_REJECTED, "crypto.session.rejected");
op_counter!(SESSION_UNKNOWN, "crypto.session.unknown_key");
op_counter!(SESSION_EXPIRED, "crypto.session.expired");
