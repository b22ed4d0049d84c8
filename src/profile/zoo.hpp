// Built-in model zoo: the 32 model variants used in the paper's evaluation
// (§6.1), with accuracy anchored to published numbers and throughput curves
// calibrated so a 20-worker simulated cluster reproduces the capacity
// phases of Fig. 1 (hardware scaling to ~560 QPS, accuracy scaling of the
// classification task to ~1550 QPS, then detection accuracy scaling).
//
// Throughput design points are per-GPU QPS at batch 8 (GTX-1080Ti-class).
// These synthetic profiles stand in for the authors' ONNX-runtime
// measurements, which are not published: accuracies follow the models'
// published numbers, and the latency curves are fitted to the capacity
// phases above rather than measured on hardware.
#pragma once

#include "profile/variant.hpp"

namespace loki::profile {

/// YOLOv5 object detection (traffic-analysis root task): n, s, m, l, x.
/// Multiplicative factor = mean detected objects per frame (cars+persons);
/// more accurate detectors find more objects (§4.2 of the paper).
VariantCatalog yolo_detection_catalog();

/// Car make/model classification: EfficientNet b0–b7 plus MobileNet tiers.
VariantCatalog car_classification_catalog();

/// Facial recognition: VGG-Face 11/13/16/19.
VariantCatalog face_recognition_catalog();

/// Image classification (social-media root task): ResNet 18/34/50/101/152.
VariantCatalog image_classification_catalog();

/// Image captioning: CLIP-ViT RN50 / B-32 / B-16 / L-14.
VariantCatalog captioning_catalog();

/// Total number of variants across the built-in catalogs (the paper uses 32).
int builtin_variant_count();

}  // namespace loki::profile
