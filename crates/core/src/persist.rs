//! Model checkpointing: save a trained [`FusionModel`] to a plain-text
//! format and restore it later, so a tuned model ships with a tool instead
//! of being retrained per run — and so an interrupted training run can
//! resume exactly where it stopped.
//!
//! The v2 format is line-oriented and self-describing (no external
//! serialization crates), integrity-checked, and carries the full
//! training state:
//!
//! ```text
//! mga-model v2
//! modality Multimodal
//! use_aux true
//! ...
//! [param] trunk.w 61 64 crc=1a2b3c4d
//! 3dcccccd be4ccccd ...
//! [dae_gauss] 3 crc=...
//! <vals> / <scores>
//! [train] 40 1 3dcccccd 3e000000
//! [optim] 40 3c23d70a
//! [rng] 9e3779b97f4a7c15 ...
//! [moment] trunk.w 61 64 crc=...
//! <m> / <v>
//! [crc] 0123456789abcdef
//! end
//! ```
//!
//! Every float is serialized as the hexadecimal of its bit pattern, so a
//! save → load → save round trip is byte-identical and a resumed run is
//! bitwise equal to an uninterrupted one. Each data-bearing section
//! carries an FNV-1a-32 checksum of its payload (`crc=`), and the whole
//! file is sealed by an FNV-1a-64 checksum on the `[crc]` line directly
//! before the `end` terminator — any truncation or byte mutation fails
//! the load with [`PersistError::Malformed`] instead of silently
//! restoring wrong weights. Files with the retired unsealed
//! `mga-model v1` header are rejected the same way, so every accepted
//! checkpoint has passed its checksums.
//!
//! [`save_checkpoint_to_file`] writes atomically (temp file + rename), so
//! a crash mid-write leaves the previous checkpoint intact.

use crate::model::{FusionModel, Modality, ModelConfig};
use mga_dae::{DaeConfig, TrainedDae};
use mga_gnn::{GnnConfig, UpdateKind};
use mga_nn::scaler::{GaussRankScaler, MinMaxScaler};
use mga_nn::Tensor;
use std::fmt::Write as _;
use std::str::FromStr;

/// Checkpointing failures.
#[derive(Debug)]
pub enum PersistError {
    Malformed(String),
    Io(std::io::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            PersistError::Io(e) => write!(f, "checkpoint I/O: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Optimizer + progress state saved alongside the weights so a run can
/// resume mid-training (see `FusionModel::try_fit`).
#[derive(Debug, Clone)]
pub struct TrainState {
    /// Epochs completed.
    pub epoch: usize,
    /// Recovery retries consumed (guardrail rollbacks).
    pub retries: u32,
    /// AdamW step count.
    pub t: u64,
    /// Effective learning rate (after any recovery halvings).
    pub lr: f32,
    /// Best loss observed (guardrail divergence baseline).
    pub best_loss: f32,
    /// Loss of the last completed epoch.
    pub final_loss: f32,
    /// AdamW first/second moments, one entry per parameter, in the
    /// parameter set's insertion order: `(name, m, v)`.
    pub moments: Vec<(String, Tensor, Tensor)>,
    /// Training RNG state (xoshiro256**).
    pub rng: [u64; 4],
}

// --- FNV-1a checksums (dependency-free; a single byte substitution is
// guaranteed to change the hash because `h -> (h ^ b) * prime` is a
// bijection in `h`). ---

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

fn fnv32_update(mut h: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        h = (h ^ b as u32).wrapping_mul(0x01000193);
    }
    h
}

fn crc_of_lines(lines: &[&str]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for l in lines {
        h = fnv32_update(h, l.as_bytes());
        h = fnv32_update(h, b"\n");
    }
    h
}

fn modality_name(m: Modality) -> &'static str {
    match m {
        Modality::Multimodal => "Multimodal",
        Modality::GraphOnly => "GraphOnly",
        Modality::VectorOnly => "VectorOnly",
        Modality::AuxOnly => "AuxOnly",
        Modality::EarlyFusion => "EarlyFusion",
    }
}

fn modality_from(s: &str) -> Result<Modality, PersistError> {
    Ok(match s {
        "Multimodal" => Modality::Multimodal,
        "GraphOnly" => Modality::GraphOnly,
        "VectorOnly" => Modality::VectorOnly,
        "AuxOnly" => Modality::AuxOnly,
        "EarlyFusion" => Modality::EarlyFusion,
        other => return Err(PersistError::Malformed(format!("modality {other}"))),
    })
}

fn update_name(u: UpdateKind) -> &'static str {
    match u {
        UpdateKind::Gru => "Gru",
        UpdateKind::SageConcat => "SageConcat",
        UpdateKind::Gcn => "Gcn",
        UpdateKind::Gat => "Gat",
    }
}

fn update_from(s: &str) -> Result<UpdateKind, PersistError> {
    Ok(match s {
        "Gru" => UpdateKind::Gru,
        "SageConcat" => UpdateKind::SageConcat,
        "Gcn" => UpdateKind::Gcn,
        "Gat" => UpdateKind::Gat,
        other => return Err(PersistError::Malformed(format!("update kind {other}"))),
    })
}

/// Bit-exact float line: hexadecimal bit patterns, space-separated.
fn floats_line(data: &[f32]) -> String {
    let mut s = String::with_capacity(data.len() * 9);
    for (i, v) in data.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        let _ = write!(s, "{:08x}", v.to_bits());
    }
    s
}

fn parse_floats(line: &str) -> Result<Vec<f32>, PersistError> {
    line.split_whitespace()
        .map(|t| {
            u32::from_str_radix(t, 16)
                .map(f32::from_bits)
                .map_err(|_| PersistError::Malformed(format!("bad float token {t}")))
        })
        .collect()
}

/// Write a data-bearing section: header line extended with a `crc=` of
/// the payload lines, then the payload.
fn push_section(out: &mut String, header: &str, payload: &[String]) {
    let refs: Vec<&str> = payload.iter().map(|s| s.as_str()).collect();
    let _ = writeln!(out, "{header} crc={:08x}", crc_of_lines(&refs));
    for l in payload {
        out.push_str(l);
        out.push('\n');
    }
}

/// Strict lowercase-hex parse for checksum tokens. `from_str_radix`
/// alone also accepts uppercase digits and a leading `+`, which would
/// let some single-byte corruptions of a checksum line re-parse to the
/// stored value; the writer only ever emits lowercase.
fn parse_crc_hex(hex: &str, width: usize) -> Option<u64> {
    (hex.len() == width && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .then(|| u64::from_str_radix(hex, 16).ok())
        .flatten()
}

/// Verify a section's `crc=` token against its payload lines. A
/// missing token is malformed.
fn check_crc(tok: Option<&str>, payload: &[&str], what: &str) -> Result<(), PersistError> {
    let tok = tok.ok_or_else(|| PersistError::Malformed(format!("{what}: missing crc")))?;
    let hex = tok
        .strip_prefix("crc=")
        .ok_or_else(|| PersistError::Malformed(format!("{what}: unexpected token {tok}")))?;
    let want = parse_crc_hex(hex, 8)
        .ok_or_else(|| PersistError::Malformed(format!("{what}: bad crc {hex}")))?
        as u32;
    if crc_of_lines(payload) != want {
        return Err(PersistError::Malformed(format!(
            "{what}: section checksum mismatch"
        )));
    }
    Ok(())
}

/// Serialize a trained model (weights + preprocessing only) to its text
/// checkpoint. Equivalent to [`save_checkpoint`] with no training state.
pub fn save_model(model: &FusionModel, vec_dim: usize, aux_dim: usize) -> String {
    save_checkpoint(model, vec_dim, aux_dim, None)
}

/// Serialize a model to the v2 checkpoint text, optionally with the
/// mid-training [`TrainState`] needed for exact resume.
pub fn save_checkpoint(
    model: &FusionModel,
    vec_dim: usize,
    aux_dim: usize,
    state: Option<&TrainState>,
) -> String {
    let mut out = String::new();
    let cfg = &model.cfg;
    out.push_str("mga-model v2\n");
    let _ = writeln!(out, "modality {}", modality_name(cfg.modality));
    let _ = writeln!(out, "use_aux {}", cfg.use_aux);
    let _ = writeln!(
        out,
        "gnn {} {} {} {}",
        cfg.gnn.dim,
        cfg.gnn.layers,
        update_name(cfg.gnn.update),
        cfg.gnn.homogeneous
    );
    let _ = writeln!(
        out,
        "dae {} {} {} {} {} {}",
        cfg.dae.input_dim,
        cfg.dae.hidden_dim,
        cfg.dae.code_dim,
        cfg.dae.swap_noise,
        cfg.dae.epochs,
        cfg.dae.lr
    );
    let _ = writeln!(out, "hidden {}", cfg.hidden);
    let _ = writeln!(out, "epochs {}", cfg.epochs);
    let _ = writeln!(out, "lr {}", cfg.lr);
    let _ = writeln!(out, "seed {}", cfg.seed);
    let _ = writeln!(
        out,
        "heads {}",
        model
            .head_sizes
            .iter()
            .map(|h| h.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(out, "vec_dim {vec_dim}");
    let _ = writeln!(out, "aux_dim {aux_dim}");

    for (name, t) in model.ps.iter_named() {
        push_section(
            &mut out,
            &format!("[param] {name} {} {}", t.rows(), t.cols()),
            &[floats_line(t.data())],
        );
    }
    if let Some(dae) = &model.dae {
        for (name, t) in dae.params.iter_named() {
            push_section(
                &mut out,
                &format!("[dae_param] {name} {} {}", t.rows(), t.cols()),
                &[floats_line(t.data())],
            );
        }
        for (vals, scores) in dae.scaler.to_parts() {
            push_section(
                &mut out,
                &format!("[dae_gauss] {}", vals.len()),
                &[floats_line(vals), floats_line(scores)],
            );
        }
    }
    if let Some(s) = &model.raw_vec_scaler {
        for (vals, scores) in s.to_parts() {
            push_section(
                &mut out,
                &format!("[vec_gauss] {}", vals.len()),
                &[floats_line(vals), floats_line(scores)],
            );
        }
    }
    if let Some(s) = &model.aux_scaler {
        let (mins, maxs) = s.to_parts();
        push_section(
            &mut out,
            &format!("[aux_minmax] {}", mins.len()),
            &[floats_line(mins), floats_line(maxs)],
        );
    }
    if let Some(st) = state {
        let _ = writeln!(
            out,
            "[train] {} {} {:08x} {:08x}",
            st.epoch,
            st.retries,
            st.best_loss.to_bits(),
            st.final_loss.to_bits()
        );
        let _ = writeln!(out, "[optim] {} {:08x}", st.t, st.lr.to_bits());
        let _ = writeln!(
            out,
            "[rng] {:016x} {:016x} {:016x} {:016x}",
            st.rng[0], st.rng[1], st.rng[2], st.rng[3]
        );
        for (name, m, v) in &st.moments {
            push_section(
                &mut out,
                &format!("[moment] {name} {} {}", m.rows(), m.cols()),
                &[floats_line(m.data()), floats_line(v.data())],
            );
        }
    }
    let crc = fnv64(out.as_bytes());
    let _ = writeln!(out, "[crc] {crc:016x}");
    out.push_str("end\n");
    out
}

fn field<T: FromStr>(
    tokens: &mut std::str::SplitWhitespace<'_>,
    what: &str,
) -> Result<T, PersistError> {
    tokens
        .next()
        .ok_or_else(|| PersistError::Malformed(format!("missing {what}")))?
        .parse::<T>()
        .map_err(|_| PersistError::Malformed(format!("bad {what}")))
}

fn hex_f32(tokens: &mut std::str::SplitWhitespace<'_>, what: &str) -> Result<f32, PersistError> {
    let t = tokens
        .next()
        .ok_or_else(|| PersistError::Malformed(format!("missing {what}")))?;
    u32::from_str_radix(t, 16)
        .map(f32::from_bits)
        .map_err(|_| PersistError::Malformed(format!("bad {what}")))
}

fn hex_u64(tokens: &mut std::str::SplitWhitespace<'_>, what: &str) -> Result<u64, PersistError> {
    let t = tokens
        .next()
        .ok_or_else(|| PersistError::Malformed(format!("missing {what}")))?;
    u64::from_str_radix(t, 16).map_err(|_| PersistError::Malformed(format!("bad {what}")))
}

/// Verify the v2 file-level seal: the text must end with exactly
/// `[crc] <16 hex>\nend\n`, and the checksum must match every byte that
/// precedes the `[crc]` line. Catches truncation (the tail is gone) and
/// any byte mutation (the FNV-1a hash changes).
fn verify_file_crc(text: &str) -> Result<(), PersistError> {
    let body = text
        .strip_suffix("end\n")
        .ok_or_else(|| PersistError::Malformed("missing end terminator".into()))?;
    let wo_nl = body
        .strip_suffix('\n')
        .ok_or_else(|| PersistError::Malformed("missing [crc] line".into()))?;
    let start = wo_nl.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let crc_line = &wo_nl[start..];
    let hex = crc_line
        .strip_prefix("[crc] ")
        .ok_or_else(|| PersistError::Malformed("missing [crc] line".into()))?;
    let want = parse_crc_hex(hex, 16)
        .ok_or_else(|| PersistError::Malformed(format!("bad file crc `{hex}`")))?;
    let got = fnv64(&body.as_bytes()[..start]);
    if got != want {
        return Err(PersistError::Malformed(format!(
            "file checksum mismatch: stored {want:016x}, computed {got:016x}"
        )));
    }
    Ok(())
}

/// Restore a model from its text checkpoint, dropping any training
/// state.
pub fn load_model(text: &str) -> Result<FusionModel, PersistError> {
    load_checkpoint(text).map(|(m, _)| m)
}

/// Restore a model plus, for checkpoints saved mid-training, the
/// [`TrainState`] needed to resume exactly.
pub fn load_checkpoint(text: &str) -> Result<(FusionModel, Option<TrainState>), PersistError> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if header != "mga-model v2" {
        return Err(PersistError::Malformed(format!("bad header `{header}`")));
    }
    verify_file_crc(text)?;

    let mut modality = Modality::Multimodal;
    let mut use_aux = true;
    let mut gnn = GnnConfig::default();
    let mut dae = DaeConfig::default();
    let mut hidden = 64;
    let mut epochs = 0;
    let mut lr = 0.01f32;
    let mut seed = 0u64;
    let mut head_sizes: Vec<usize> = Vec::new();
    let mut vec_dim = 0usize;
    let mut aux_dim = 0usize;

    let mut params: Vec<(String, Tensor)> = Vec::new();
    let mut dae_params: Vec<(String, Tensor)> = Vec::new();
    let mut dae_gauss: Vec<(Vec<f32>, Vec<f32>)> = Vec::new();
    let mut vec_gauss: Vec<(Vec<f32>, Vec<f32>)> = Vec::new();
    let mut aux_minmax: Option<(Vec<f32>, Vec<f32>)> = None;

    let mut tr_epoch: Option<usize> = None;
    let mut tr_retries = 0u32;
    let mut tr_best = f32::INFINITY;
    let mut tr_final = f32::NAN;
    let mut opt_t = 0u64;
    let mut opt_lr = lr;
    let mut rng_state: Option<[u64; 4]> = None;
    let mut moments: Vec<(String, Tensor, Tensor)> = Vec::new();

    while let Some(line) = lines.next() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "end" {
            break;
        }
        let mut toks = line.split_whitespace();
        match toks.next().unwrap() {
            "modality" => modality = modality_from(toks.next().unwrap_or(""))?,
            "use_aux" => use_aux = field(&mut toks, "use_aux")?,
            "gnn" => {
                gnn.dim = field(&mut toks, "gnn dim")?;
                gnn.layers = field(&mut toks, "gnn layers")?;
                gnn.update = update_from(toks.next().unwrap_or(""))?;
                gnn.homogeneous = toks.next().map(|t| t == "true").unwrap_or(false);
            }
            "dae" => {
                dae.input_dim = field(&mut toks, "dae input")?;
                dae.hidden_dim = field(&mut toks, "dae hidden")?;
                dae.code_dim = field(&mut toks, "dae code")?;
                dae.swap_noise = field(&mut toks, "dae noise")?;
                dae.epochs = field(&mut toks, "dae epochs")?;
                dae.lr = field(&mut toks, "dae lr")?;
            }
            "hidden" => hidden = field(&mut toks, "hidden")?,
            "epochs" => epochs = field(&mut toks, "epochs")?,
            "lr" => lr = field(&mut toks, "lr")?,
            "seed" => seed = field(&mut toks, "seed")?,
            "heads" => {
                head_sizes = toks
                    .map(|t| {
                        t.parse()
                            .map_err(|_| PersistError::Malformed("head".into()))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "vec_dim" => vec_dim = field(&mut toks, "vec_dim")?,
            "aux_dim" => aux_dim = field(&mut toks, "aux_dim")?,
            "[param]" | "[dae_param]" => {
                let kind = line.starts_with("[param]");
                let name: String = field(&mut toks, "param name")?;
                let rows: usize = field(&mut toks, "rows")?;
                let cols: usize = field(&mut toks, "cols")?;
                let raw = lines
                    .next()
                    .ok_or_else(|| PersistError::Malformed("missing data".into()))?;
                check_crc(toks.next(), &[raw], &format!("param {name}"))?;
                let data = parse_floats(raw)?;
                if data.len() != rows * cols {
                    return Err(PersistError::Malformed(format!(
                        "param {name}: {} values for {rows}x{cols}",
                        data.len()
                    )));
                }
                let t = Tensor::from_vec(rows, cols, data);
                if kind {
                    params.push((name, t));
                } else {
                    dae_params.push((name, t));
                }
            }
            "[dae_gauss]" | "[vec_gauss]" => {
                let is_dae = line.starts_with("[dae_gauss]");
                let _len: usize = field(&mut toks, "gauss len")?;
                let raw_vals = lines
                    .next()
                    .ok_or_else(|| PersistError::Malformed("missing gauss vals".into()))?;
                let raw_scores = lines
                    .next()
                    .ok_or_else(|| PersistError::Malformed("missing gauss scores".into()))?;
                check_crc(toks.next(), &[raw_vals, raw_scores], "gauss")?;
                let vals = parse_floats(raw_vals)?;
                let scores = parse_floats(raw_scores)?;
                if is_dae {
                    dae_gauss.push((vals, scores));
                } else {
                    vec_gauss.push((vals, scores));
                }
            }
            "[aux_minmax]" => {
                let _len: usize = field(&mut toks, "minmax len")?;
                let raw_mins = lines
                    .next()
                    .ok_or_else(|| PersistError::Malformed("missing mins".into()))?;
                let raw_maxs = lines
                    .next()
                    .ok_or_else(|| PersistError::Malformed("missing maxs".into()))?;
                check_crc(toks.next(), &[raw_mins, raw_maxs], "aux_minmax")?;
                let mins = parse_floats(raw_mins)?;
                let maxs = parse_floats(raw_maxs)?;
                aux_minmax = Some((mins, maxs));
            }
            "[train]" => {
                tr_epoch = Some(field(&mut toks, "train epoch")?);
                tr_retries = field(&mut toks, "train retries")?;
                tr_best = hex_f32(&mut toks, "train best_loss")?;
                tr_final = hex_f32(&mut toks, "train final_loss")?;
            }
            "[optim]" => {
                opt_t = field(&mut toks, "optim t")?;
                opt_lr = hex_f32(&mut toks, "optim lr")?;
            }
            "[rng]" => {
                let mut s = [0u64; 4];
                for slot in &mut s {
                    *slot = hex_u64(&mut toks, "rng state")?;
                }
                rng_state = Some(s);
            }
            "[moment]" => {
                let name: String = field(&mut toks, "moment name")?;
                let rows: usize = field(&mut toks, "rows")?;
                let cols: usize = field(&mut toks, "cols")?;
                let raw_m = lines
                    .next()
                    .ok_or_else(|| PersistError::Malformed("missing moment m".into()))?;
                let raw_v = lines
                    .next()
                    .ok_or_else(|| PersistError::Malformed("missing moment v".into()))?;
                check_crc(toks.next(), &[raw_m, raw_v], &format!("moment {name}"))?;
                let m = parse_floats(raw_m)?;
                let v = parse_floats(raw_v)?;
                if m.len() != rows * cols || v.len() != rows * cols {
                    return Err(PersistError::Malformed(format!(
                        "moment {name}: wrong element count for {rows}x{cols}"
                    )));
                }
                moments.push((
                    name,
                    Tensor::from_vec(rows, cols, m),
                    Tensor::from_vec(rows, cols, v),
                ));
            }
            "[crc]" => {
                // File-level seal, verified before parsing began.
            }
            other => {
                return Err(PersistError::Malformed(format!("unknown section {other}")));
            }
        }
    }

    let cfg = ModelConfig {
        modality,
        use_aux,
        gnn,
        dae: dae.clone(),
        hidden,
        epochs,
        lr,
        seed,
    };
    let mut model = FusionModel::skeleton(cfg, &head_sizes, vec_dim, aux_dim);
    for (name, t) in params {
        model
            .ps
            .set_by_name(&name, t)
            .map_err(|e| PersistError::Malformed(format!("parameter {name}: {e}")))?;
    }
    if modality == Modality::Multimodal {
        if dae_gauss.is_empty() {
            return Err(PersistError::Malformed(
                "multimodal checkpoint without DAE".into(),
            ));
        }
        model.dae = Some(
            TrainedDae::from_parts(dae, dae_params, GaussRankScaler::from_parts(dae_gauss))
                .map_err(PersistError::Malformed)?,
        );
    }
    if !vec_gauss.is_empty() {
        model.raw_vec_scaler = Some(GaussRankScaler::from_parts(vec_gauss));
    }
    if let Some((mins, maxs)) = aux_minmax {
        model.aux_scaler = Some(MinMaxScaler::from_parts(mins, maxs));
    }
    let state = tr_epoch.map(|epoch| TrainState {
        epoch,
        retries: tr_retries,
        t: opt_t,
        lr: opt_lr,
        best_loss: tr_best,
        final_loss: tr_final,
        moments,
        rng: rng_state.unwrap_or([0; 4]),
    });
    if let Some(st) = &state {
        model.final_loss = st.final_loss;
    }
    Ok((model, state))
}

/// Restore from raw file bytes; non-UTF-8 content (e.g. bit-flipped
/// files) is a typed [`PersistError::Malformed`], not a panic.
pub fn load_checkpoint_bytes(
    bytes: &[u8],
) -> Result<(FusionModel, Option<TrainState>), PersistError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| PersistError::Malformed("checkpoint is not valid UTF-8".into()))?;
    load_checkpoint(text)
}

/// Save to a file path (atomic; no training state).
pub fn save_to_file(
    model: &FusionModel,
    vec_dim: usize,
    aux_dim: usize,
    path: &std::path::Path,
) -> Result<(), PersistError> {
    save_checkpoint_to_file(model, vec_dim, aux_dim, None, path)
}

/// Atomically save a checkpoint: serialize, write to a sibling temp file,
/// fsync, rename. A crash at any point leaves either the old checkpoint
/// or the new one — never a torn file. This is also the `ckpt` fault
/// injection site: with `MGA_FAULT=ckpt:truncate:…` or `ckpt:bitflip:…`
/// armed, the serialized bytes are corrupted before the write so loaders
/// can prove they reject damaged files.
pub fn save_checkpoint_to_file(
    model: &FusionModel,
    vec_dim: usize,
    aux_dim: usize,
    state: Option<&TrainState>,
    path: &std::path::Path,
) -> Result<(), PersistError> {
    let mut bytes = save_checkpoint(model, vec_dim, aux_dim, state).into_bytes();
    if mga_obs::fault::armed() {
        if let Some(shot) = mga_obs::fault::fire(mga_obs::fault::Site::Ckpt) {
            corrupt_bytes(&mut bytes, shot);
        }
    }
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("checkpoint");
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn corrupt_bytes(bytes: &mut Vec<u8>, shot: mga_obs::fault::Shot) {
    match shot.kind {
        mga_obs::fault::Kind::Truncate => {
            let cut = (shot.draw as usize) % bytes.len().max(1);
            bytes.truncate(cut);
        }
        mga_obs::fault::Kind::BitFlip if !bytes.is_empty() => {
            let pos = (shot.draw as usize) % bytes.len();
            let bit = ((shot.draw >> 56) % 8) as u8;
            bytes[pos] ^= 1 << bit;
        }
        _ => {}
    }
}

/// Load from a file path (model only).
pub fn load_from_file(path: &std::path::Path) -> Result<FusionModel, PersistError> {
    load_checkpoint_from_file(path).map(|(m, _)| m)
}

/// Load from a file path, with any saved training state.
pub fn load_checkpoint_from_file(
    path: &std::path::Path,
) -> Result<(FusionModel, Option<TrainState>), PersistError> {
    load_checkpoint_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cv::kfold_by_group;
    use crate::omp::OmpTask;
    use crate::OmpDataset;
    use mga_kernels::catalog::openmp_thread_dataset;
    use mga_sim::cpu::CpuSpec;
    use mga_sim::openmp::thread_space;

    fn trained(modality: Modality) -> (OmpDataset, OmpTask, FusionModel, Vec<usize>) {
        let specs: Vec<_> = openmp_thread_dataset().into_iter().step_by(6).collect();
        let cpu = CpuSpec::comet_lake();
        let ds = OmpDataset::build(specs, vec![1e6, 1e8], thread_space(&cpu), cpu, 12, 4);
        let task = OmpTask::new(&ds);
        let folds = kfold_by_group(&ds.groups(), 3, 1);
        let cfg = ModelConfig {
            modality,
            use_aux: true,
            gnn: GnnConfig {
                dim: 10,
                layers: 1,
                update: UpdateKind::Gru,
                homogeneous: false,
            },
            dae: DaeConfig {
                input_dim: 12,
                hidden_dim: 8,
                code_dim: 4,
                epochs: 10,
                ..DaeConfig::default()
            },
            hidden: 16,
            epochs: 10,
            lr: 0.02,
            seed: 2,
        };
        let data = task.train_data(&ds);
        let model = FusionModel::fit(cfg, &data, &folds[0].train, &task.codec.head_sizes());
        (ds, task, model, folds[0].val.clone())
    }

    #[test]
    fn round_trip_preserves_predictions_multimodal() {
        let (ds, task, model, val) = trained(Modality::Multimodal);
        let data = task.train_data(&ds);
        let before = model.predict(&data, &val);
        let text = save_model(&model, 12, 5);
        let restored = load_model(&text).expect("load");
        let after = restored.predict(&data, &val);
        assert_eq!(before, after, "checkpoint changed predictions");
    }

    #[test]
    fn round_trip_preserves_predictions_vector_only() {
        let (ds, task, model, val) = trained(Modality::VectorOnly);
        let data = task.train_data(&ds);
        let before = model.predict(&data, &val);
        let text = save_model(&model, 12, 5);
        let restored = load_model(&text).expect("load");
        assert_eq!(before, restored.predict(&data, &val));
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(load_model("not a checkpoint").is_err());
        assert!(load_model("mga-model v1\nbogus_section x\nend\n").is_err());
        // v2 without its seal is rejected before any parsing.
        assert!(matches!(
            load_model("mga-model v2\nmodality Multimodal\nend\n"),
            Err(PersistError::Malformed(_))
        ));
        // Non-UTF-8 bytes are a typed error.
        assert!(matches!(
            load_checkpoint_bytes(&[0x6d, 0x67, 0x61, 0xff, 0xfe]),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn v1_checkpoints_are_rejected_with_a_typed_error() {
        // A legacy v1 file: old header, no crc tokens, no [crc] seal.
        let (_, _, model, _) = trained(Modality::VectorOnly);
        let v1: String = save_model(&model, 12, 5)
            .lines()
            .filter(|l| !l.starts_with("[crc] "))
            .map(|l| {
                let l = l.replace("mga-model v2", "mga-model v1");
                match l.find(" crc=") {
                    Some(i) => format!("{}\n", &l[..i]),
                    None => format!("{l}\n"),
                }
            })
            .collect();
        assert!(v1.starts_with("mga-model v1\n"));
        match load_model(&v1) {
            Err(PersistError::Malformed(m)) => assert!(m.contains("v1"), "{m}"),
            other => panic!(
                "v1 checkpoint must be Malformed, got {:?}",
                other.map(|_| ())
            ),
        }
        assert!(matches!(
            load_checkpoint_bytes(v1.as_bytes()),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn save_load_save_is_a_fixpoint() {
        let (_, _, model, _) = trained(Modality::Multimodal);
        let state = TrainState {
            epoch: 7,
            retries: 1,
            t: 7,
            lr: 0.005,
            best_loss: 0.25,
            final_loss: 0.3,
            moments: model
                .ps
                .iter_named()
                .map(|(n, t)| {
                    (
                        n.to_string(),
                        Tensor::full(t.rows(), t.cols(), 0.125),
                        Tensor::full(t.rows(), t.cols(), 0.5),
                    )
                })
                .collect(),
            rng: [1, 2, 3, 4],
        };
        let text = save_checkpoint(&model, 12, 5, Some(&state));
        let (restored, rstate) = load_checkpoint(&text).expect("load");
        let rstate = rstate.expect("training state survived");
        assert_eq!(rstate.epoch, 7);
        assert_eq!(rstate.retries, 1);
        assert_eq!(rstate.t, 7);
        assert_eq!(rstate.lr, 0.005);
        assert_eq!(rstate.rng, [1, 2, 3, 4]);
        assert_eq!(rstate.moments.len(), state.moments.len());
        let again = save_checkpoint(&restored, 12, 5, Some(&rstate));
        assert_eq!(text, again, "save→load→save must be byte-identical");
    }

    #[test]
    fn corruption_is_detected() {
        let (_, _, model, _) = trained(Modality::VectorOnly);
        let text = save_model(&model, 12, 5);
        // Flip one payload character.
        let pos = text.find("[param]").unwrap() + 40;
        let mut bytes = text.clone().into_bytes();
        bytes[pos] ^= 0x01;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(
            matches!(load_model(&flipped), Err(PersistError::Malformed(_))),
            "bit flip must be caught"
        );
        // Truncate mid-file.
        let cut = &text[..text.len() / 2];
        assert!(matches!(load_model(cut), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn file_round_trip() {
        let (ds, task, model, val) = trained(Modality::GraphOnly);
        let data = task.train_data(&ds);
        let dir = std::env::temp_dir().join("mga_persist_test.ckpt");
        save_to_file(&model, 12, 5, &dir).unwrap();
        let restored = load_from_file(&dir).unwrap();
        assert_eq!(model.predict(&data, &val), restored.predict(&data, &val));
        let _ = std::fs::remove_file(&dir);
    }
}
