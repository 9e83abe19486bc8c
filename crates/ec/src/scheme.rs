//! Code-parameter descriptors shared across the analysis stack.
//!
//! These types carry only the *parameters* of a code (not its matrices), so
//! the topology, simulation, and analysis crates can reason about overhead
//! and tolerance without touching byte-level codecs.

/// Single-level erasure code parameters: `k` data + `p` parity chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlecParams {
    /// Data chunks per stripe.
    pub k: usize,
    /// Parity chunks per stripe.
    pub p: usize,
}

impl SlecParams {
    /// Construct `(k + p)` parameters.
    pub const fn new(k: usize, p: usize) -> SlecParams {
        SlecParams { k, p }
    }

    /// Stripe width `k + p`.
    pub const fn width(&self) -> usize {
        self.k + self.p
    }

    /// Parity overhead `p / k`.
    pub fn overhead(&self) -> f64 {
        self.p as f64 / self.k as f64
    }

    /// Maximum arbitrary chunk failures tolerated per stripe.
    pub const fn tolerance(&self) -> usize {
        self.p
    }
}

impl std::fmt::Display for SlecParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}+{})", self.k, self.p)
    }
}

/// Two-level MLEC parameters `(k_n + p_n) / (k_l + p_l)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MlecParams {
    /// Network-level code.
    pub network: SlecParams,
    /// Local-level code.
    pub local: SlecParams,
}

impl MlecParams {
    /// Construct `(kn + pn) / (kl + pl)` parameters.
    pub const fn new(kn: usize, pn: usize, kl: usize, pl: usize) -> MlecParams {
        MlecParams {
            network: SlecParams::new(kn, pn),
            local: SlecParams::new(kl, pl),
        }
    }

    /// The paper's running configuration: `(10+2)/(17+3)`.
    pub const fn paper_default() -> MlecParams {
        MlecParams::new(10, 2, 17, 3)
    }

    /// Data chunks per network stripe (`k_n * k_l`).
    pub const fn data_chunks(&self) -> usize {
        self.network.k * self.local.k
    }

    /// Total chunks per network stripe.
    pub const fn total_chunks(&self) -> usize {
        self.network.width() * self.local.width()
    }

    /// Parity overhead `total/data - 1`; e.g. 41.2% for `(10+2)/(17+3)`.
    pub fn overhead(&self) -> f64 {
        self.total_chunks() as f64 / self.data_chunks() as f64 - 1.0
    }
}

impl std::fmt::Display for MlecParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.network, self.local)
    }
}

/// `(k, l, r)` LRC parameters (Azure notation, paper §5.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LrcParams {
    /// Data chunks.
    pub k: usize,
    /// Local groups (one XOR parity each).
    pub l: usize,
    /// Global parities.
    pub r: usize,
}

impl LrcParams {
    /// Construct `(k, l, r)` parameters.
    pub const fn new(k: usize, l: usize, r: usize) -> LrcParams {
        LrcParams { k, l, r }
    }

    /// The paper's comparison configuration `(14, 2, 4)` (§5.2.3).
    pub const fn paper_default() -> LrcParams {
        LrcParams::new(14, 2, 4)
    }

    /// Total chunks per stripe.
    pub const fn width(&self) -> usize {
        self.k + self.l + self.r
    }

    /// Parity overhead `(l + r) / k`.
    pub fn overhead(&self) -> f64 {
        (self.l + self.r) as f64 / self.k as f64
    }
}

impl std::fmt::Display for LrcParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{},{})", self.k, self.l, self.r)
    }
}

/// Any of the three code families compared in the paper (§5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EcScheme {
    /// Single-level erasure coding.
    Slec(SlecParams),
    /// Multi-level erasure coding.
    Mlec(MlecParams),
    /// Locally repairable code.
    Lrc(LrcParams),
}

impl EcScheme {
    /// Parity overhead of the scheme.
    pub fn overhead(&self) -> f64 {
        match self {
            EcScheme::Slec(s) => s.overhead(),
            EcScheme::Mlec(m) => m.overhead(),
            EcScheme::Lrc(l) => l.overhead(),
        }
    }

    /// Total encoding work per data byte, in coefficient multiply-adds —
    /// the first-order model of single-core encoding cost (validated against
    /// the measured Fig. 11 surface):
    /// - SLEC `(k+p)`: each data byte feeds `p` parity accumulations.
    /// - MLEC: `p_n` network parities per byte, then each of the
    ///   `k_n + p_n` rows does `p_l` local accumulations over its bytes.
    /// - LRC: 1 XOR for the local group + `r` global accumulations.
    pub fn encoding_multiplies_per_byte(&self) -> f64 {
        match self {
            EcScheme::Slec(s) => s.p as f64,
            EcScheme::Mlec(m) => {
                let per_data_byte_network = m.network.p as f64;
                // Every byte (data or network-parity) gets local encoding;
                // network-parity bytes are p_n/k_n per data byte.
                let bytes_per_data_byte = 1.0 + m.network.p as f64 / m.network.k as f64;
                per_data_byte_network + bytes_per_data_byte * m.local.p as f64
            }
            EcScheme::Lrc(l) => 1.0 + l.r as f64,
        }
    }
}

impl std::fmt::Display for EcScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcScheme::Slec(s) => write!(f, "SLEC{s}"),
            EcScheme::Mlec(m) => write!(f, "MLEC{m}"),
            EcScheme::Lrc(l) => write!(f, "LRC{l}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_overheads() {
        let m = MlecParams::paper_default();
        // (10+2)/(17+3): 12*20 / (10*17) - 1 = 240/170 - 1 ≈ 0.4118
        assert!((m.overhead() - (240.0 / 170.0 - 1.0)).abs() < 1e-12);
        let l = LrcParams::paper_default();
        assert!((l.overhead() - 6.0 / 14.0).abs() < 1e-12);
        let s = SlecParams::new(7, 3);
        assert!((s.overhead() - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn display_notation_matches_paper() {
        assert_eq!(MlecParams::paper_default().to_string(), "(10+2)/(17+3)");
        assert_eq!(SlecParams::new(7, 3).to_string(), "(7+3)");
        assert_eq!(LrcParams::paper_default().to_string(), "(14,2,4)");
    }

    #[test]
    fn encoding_cost_model_orderings() {
        // A wide SLEC with many parities must cost more than an MLEC with
        // few parities per level (the paper's Fig. 12 F#2 mechanism).
        let slec = EcScheme::Slec(SlecParams::new(28, 12));
        let mlec = EcScheme::Mlec(MlecParams::new(17, 3, 17, 3));
        assert!(slec.encoding_multiplies_per_byte() > mlec.encoding_multiplies_per_byte());
        // LRC with one local XOR + r globals sits between.
        let lrc = EcScheme::Lrc(LrcParams::new(14, 2, 4));
        assert!((lrc.encoding_multiplies_per_byte() - 5.0).abs() < 1e-12);
    }
}
