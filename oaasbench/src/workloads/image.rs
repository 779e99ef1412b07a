//! `image_pipeline`: the Listing 1 tutorial application. Set-up uploads
//! small rasters through presigned URLs; the timed phase runs the
//! `pipeline` dataflow (resize, then detectObject: one fused unit), each
//! followed by a presigned download that checks the stored raster, beside
//! `changeFormat` invokes.

use std::cell::Cell;
use std::sync::atomic::Ordering;

use bytes::Bytes;
use oprc_core::object::ObjectId;
use oprc_platform::embedded::EmbeddedPlatform;
use oprc_simcore::SimRng;
use oprc_value::{vjson, Value};
use oprc_workloads::image::{
    self, count_bright_objects, decode_image, encode_image, generate_image, resize_pixels,
};

use super::{Picker, STEP, TICK_EVERY};
use crate::alloc::heap_bytes_of;
use crate::bench::{Client, Instance, SetupStats};
use crate::meter::{Kind, Meter, Pace};

const IMAGES: usize = 256;
const SKEW: f64 = 0.8;
const OPS_PER_ROUND: usize = 20;
const WINDOW_ROUNDS: u64 = 600;
/// Rounds per second on the reference host.
const ROUNDS_PER_SECOND: u64 = 720;
const FORMATS: [&str; 3] = ["png", "jpeg", "webp"];

/// The oracle's copy of one image object.
#[derive(Debug, Clone)]
struct Model {
    raster: Bytes,
    content_type: String,
    /// `(width, height, objects)` after the last pipeline.
    pipeline: Option<(u64, u64, i64)>,
    format: Option<&'static str>,
}

struct ImageApp {
    p: EmbeddedPlatform,
    pace: Pace,
    seed: u64,
    ids: Vec<ObjectId>,
    /// The model, until the client takes it.
    models: Cell<Vec<Model>>,
}

pub fn setup(
    seed: u64,
    telemetry: bool,
    m: &mut Meter,
    s: &mut SetupStats,
) -> Result<Box<dyn Instance>, String> {
    let mut p = super::platform(telemetry, None);
    let (deployed, ns) = m.time(Kind::Setup, || image::install(&mut p));
    deployed.map_err(|e| format!("deploy: {e}"))?;
    s.deploy_ns = ns;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut ids = Vec::with_capacity(IMAGES);
    let mut models = Vec::with_capacity(IMAGES);
    for _ in 0..IMAGES {
        let (id, ns) = m.time(Kind::Setup, || p.create_object("LabelledImage", vjson!({})));
        s.create_ns += ns;
        s.creates += 1;
        let id = id.map_err(|e| format!("create: {e}"))?;
        let (w, h) = (rng.range(48, 97) as usize, rng.range(24, 49) as usize);
        let raster = generate_image(w, h, rng.range(1, 6) as usize);
        let url = m.time(Kind::Presign, || p.upload_url(id, "image")).0;
        let url = url.map_err(|e| format!("presign: {e}"))?;
        let data = raster.clone();
        let put = m
            .time(Kind::S3Upload, || p.upload(&url, data, "image/raw"))
            .0;
        put.map_err(|e| format!("upload: {e}"))?;
        ids.push(id);
        models.push(Model {
            raster,
            content_type: "image/raw".into(),
            pipeline: None,
            format: None,
        });
    }
    // Warm-up: download every image once.
    for (&id, model) in ids.iter().zip(&models) {
        check_download(&p, id, model, &mut Meter::new(None))?;
    }
    Ok(Box::new(ImageApp {
        pace: Pace::new(STEP, TICK_EVERY, !telemetry),
        p,
        seed,
        ids,
        models: Cell::new(models),
    }))
}

/// A presigned download (one API call: presign, then GET), checked
/// byte for byte against the model.
fn check_download(
    p: &EmbeddedPlatform,
    id: ObjectId,
    want: &Model,
    m: &mut Meter,
) -> Result<(), String> {
    let (url, a) = m.time(Kind::Presign, || p.download_url(id, "image"));
    let url = url.map_err(|e| format!("presign {id}: {e}"))?;
    let (got, b) = m.time(Kind::S3Download, || p.download(&url));
    m.api(a + b);
    m.harness(|| {
        let got = got.map_err(|e| format!("download {id}: {e}"))?;
        if got.data != want.raster || got.meta.content_type != want.content_type {
            return Err(format!("download of {id} disagrees with the model"));
        }
        Ok(())
    })
}

impl Instance for ImageApp {
    fn platform(&self) -> &EmbeddedPlatform {
        &self.p
    }

    fn window_rounds(&self) -> u64 {
        WINDOW_ROUNDS
    }

    fn rounds_per_second(&self) -> u64 {
        ROUNDS_PER_SECOND
    }

    fn client(&self) -> Box<dyn Client + '_> {
        let mut rng = SimRng::seed_from_u64(self.seed ^ 0x1_3a9e);
        Box::new(ImageClient {
            picker: Picker::new(IMAGES, SKEW, &mut rng),
            rng,
            inst: self,
            models: self.models.take(),
        })
    }

    fn root_kind(&self, function: &str) -> Kind {
        if function == "pipeline" {
            Kind::Flow
        } else {
            Kind::InvokeWrite
        }
    }

    fn pace_ticks(&self) -> u64 {
        self.pace.ticks.load(Ordering::Relaxed)
    }
}

struct ImageClient<'a> {
    inst: &'a ImageApp,
    rng: SimRng,
    picker: Picker,
    models: Vec<Model>,
}

impl ImageClient<'_> {
    fn pipeline(&mut self, m: &mut Meter, i: usize) -> Result<(), String> {
        let p = &self.inst.p;
        let id = self.inst.ids[i];
        let counts = || (p.metrics().commits_total(), p.metrics().fused_units_total());
        let (w, h, args, before) = m.harness(|| {
            let (w, h) = (self.rng.range(24, 97), self.rng.range(12, 49));
            (w, h, vec![vjson!({"width": w, "height": h})], counts())
        });
        let out = m.call(Kind::Flow, || p.invoke(id, "pipeline", args));
        let model = &mut self.models[i];
        let (commits, fused) = m.harness(|| {
            let after = counts();
            (after.0 - before.0, after.1 - before.1)
        });
        m.flow_commits += commits;
        m.flow_fused += fused;
        m.harness(|| {
            let out = out.map_err(|e| format!("pipeline on {id}: {e}"))?.output;
            let (sw, sh, px) = decode_image(&model.raster).ok_or("model raster is malformed")?;
            let resized = resize_pixels((sw, sh, px), w as usize, h as usize);
            let objects = count_bright_objects((w as usize, h as usize, &resized)) as i64;
            model.raster = encode_image(w as usize, h as usize, &resized);
            model.pipeline = Some((w, h, objects));
            if out["objects"].as_i64() != Some(objects) {
                return Err(format!(
                    "pipeline on {id} labelled {out}, expected {objects} objects"
                ));
            }
            Ok(())
        })?;
        // The label must match the stored raster, which must have the
        // requested dimensions.
        check_download(p, id, model, m)
    }
}

impl Client for ImageClient<'_> {
    fn round(&mut self, m: &mut Meter) -> Result<(), String> {
        let p = &self.inst.p;
        for _ in 0..OPS_PER_ROUND {
            let (i, roll) = m.harness(|| (self.picker.pick(&mut self.rng), self.rng.range(0, 100)));
            let id = self.inst.ids[i];
            match roll {
                0..=49 => {
                    m.attempted += 1;
                    self.pipeline(m, i)?;
                    m.done(1, 1);
                }
                _ => {
                    let (format, args) = m.harness(|| {
                        let format = FORMATS[self.rng.range(0, 3) as usize];
                        (format, vec![vjson!({"format": format})])
                    });
                    m.attempted += 1;
                    let out = m.call(Kind::InvokeWrite, || p.invoke(id, "changeFormat", args));
                    let model = &mut self.models[i];
                    m.harness(|| {
                        let out = out
                            .map_err(|e| format!("changeFormat on {id}: {e}"))?
                            .output;
                        model.format = Some(format);
                        model.content_type = format!("image/{format}");
                        if out["format"].as_str() != Some(format) {
                            return Err(format!("changeFormat returned {out}"));
                        }
                        Ok(())
                    })?;
                    m.done(1, 1);
                }
            }
            let pace = &self.inst.pace;
            let due = m.harness(|| pace.advance(p, 1));
            pace.tick(p, m, due);
        }
        Ok(())
    }

    fn verify(&self, durable: bool) -> Result<(), String> {
        let p = &self.inst.p;
        for (&id, model) in self.inst.ids.iter().zip(&self.models) {
            let state = if durable {
                p.durable_state(id).unwrap_or(Value::Null)
            } else {
                p.get_state(id)
                    .map_err(|e| format!("get_state {id}: {e}"))?
            };
            let pipeline_ok = model.pipeline.is_none_or(|(w, h, objects)| {
                state["width"].as_u64() == Some(w)
                    && state["height"].as_u64() == Some(h)
                    && state["labels"]["objects"].as_i64() == Some(objects)
            });
            if !pipeline_ok || state["format"].as_str() != model.format {
                let tier = if durable { "durable" } else { "live" };
                return Err(format!(
                    "{tier} state of {id} disagrees with the model: {state}"
                ));
            }
        }
        Ok(())
    }

    fn model_bytes(&self) -> u64 {
        // Rasters are reference-counted `Bytes`, which a clone shares.
        let rasters: usize = self.models.iter().map(|m| m.raster.len()).sum();
        heap_bytes_of(&self.models) + rasters as u64
    }
}
