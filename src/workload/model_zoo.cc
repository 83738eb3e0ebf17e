#include "workload/model_zoo.hh"

#include "sim/logging.hh"

namespace snpu
{

std::vector<ModelId>
allModels()
{
    return {ModelId::googlenet, ModelId::alexnet, ModelId::yololite,
            ModelId::mobilenet, ModelId::resnet, ModelId::bert};
}

const char *
modelName(ModelId id)
{
    switch (id) {
      case ModelId::googlenet:
        return "googlenet";
      case ModelId::alexnet:
        return "alexnet";
      case ModelId::yololite:
        return "yololite";
      case ModelId::mobilenet:
        return "mobilenet";
      case ModelId::resnet:
        return "resnet";
      case ModelId::bert:
        return "bert";
    }
    return "?";
}

namespace
{

LayerSpec
layer(const char *name, LayerKind kind, std::uint32_t m, std::uint32_t n,
      std::uint32_t k, bool relu = true)
{
    LayerSpec spec;
    spec.name = name;
    spec.kind = kind;
    spec.m = m;
    spec.n = n;
    spec.k = k;
    spec.relu = relu;
    return spec;
}

ModelSpec
makeGooglenet()
{
    // Inception-v1 trunk + representative inception branches (the
    // full net repeats these shapes; we keep one block per stage).
    ModelSpec model;
    model.name = "googlenet";
    model.layers = {
        layer("conv1_7x7", LayerKind::conv, 12544, 64, 147),
        layer("conv2_3x3r", LayerKind::pointwise, 3136, 64, 64),
        layer("conv2_3x3", LayerKind::conv, 3136, 192, 576),
        layer("in3a_1x1", LayerKind::pointwise, 784, 64, 192),
        layer("in3a_3x3r", LayerKind::pointwise, 784, 96, 192),
        layer("in3a_3x3", LayerKind::conv, 784, 128, 864),
        layer("in3a_5x5", LayerKind::conv, 784, 32, 400),
        layer("in3b_3x3", LayerKind::conv, 784, 192, 1152),
        layer("in4a_1x1", LayerKind::pointwise, 196, 192, 480),
        layer("in4a_3x3", LayerKind::conv, 196, 208, 864),
        layer("in4c_3x3", LayerKind::conv, 196, 256, 1152),
        layer("in4e_3x3", LayerKind::conv, 196, 320, 1440),
        layer("in5a_3x3", LayerKind::conv, 49, 320, 1440),
        layer("in5b_3x3", LayerKind::conv, 49, 384, 1728),
        layer("fc", LayerKind::fc, 128, 1000, 1024, false),
    };
    return model;
}

ModelSpec
makeAlexnet()
{
    // Conv trunk at batch 1; the FC head dominates the weight
    // footprint and runs at batch 128 (server-style inference),
    // which is what makes AlexNet scratchpad-capacity sensitive.
    ModelSpec model;
    model.name = "alexnet";
    model.layers = {
        layer("conv1", LayerKind::conv, 3025, 96, 363),
        layer("conv2", LayerKind::conv, 729, 256, 1200),
        layer("conv3", LayerKind::conv, 169, 384, 2304),
        layer("conv4", LayerKind::conv, 169, 384, 1728),
        layer("conv5", LayerKind::conv, 169, 256, 1728),
        layer("fc6", LayerKind::fc, 128, 4096, 9216),
        layer("fc7", LayerKind::fc, 128, 4096, 4096),
        layer("fc8", LayerKind::fc, 128, 1000, 4096, false),
    };
    return model;
}

ModelSpec
makeYololite()
{
    // YOLO-lite: seven small convolutions on 224x224 input — tiny
    // weights, streaming activations, scratchpad-insensitive.
    ModelSpec model;
    model.name = "yololite";
    model.layers = {
        layer("conv1", LayerKind::conv, 12544, 16, 27),
        layer("conv2", LayerKind::conv, 3136, 32, 144),
        layer("conv3", LayerKind::conv, 784, 64, 288),
        layer("conv4", LayerKind::conv, 196, 128, 576),
        layer("conv5", LayerKind::conv, 49, 128, 1152),
        layer("conv6", LayerKind::conv, 49, 256, 1152),
        layer("conv7", LayerKind::conv, 49, 125, 2304, false),
    };
    return model;
}

ModelSpec
makeMobilenet()
{
    // MobileNet-v1: alternating depthwise (K = 9, one input channel
    // slab at a time) and pointwise layers. Low arithmetic intensity
    // but small working sets -> scratchpad-insensitive.
    ModelSpec model;
    model.name = "mobilenet";
    model.layers = {
        layer("conv1", LayerKind::conv, 12544, 32, 27),
        layer("dw2", LayerKind::depthwise, 12544, 32, 9),
        layer("pw2", LayerKind::pointwise, 12544, 64, 32),
        layer("dw3", LayerKind::depthwise, 3136, 64, 9),
        layer("pw3", LayerKind::pointwise, 3136, 128, 64),
        layer("dw4", LayerKind::depthwise, 3136, 128, 9),
        layer("pw4", LayerKind::pointwise, 3136, 128, 128),
        layer("dw5", LayerKind::depthwise, 784, 128, 9),
        layer("pw5", LayerKind::pointwise, 784, 256, 128),
        layer("dw6", LayerKind::depthwise, 784, 256, 9),
        layer("pw6", LayerKind::pointwise, 784, 256, 256),
        layer("dw7", LayerKind::depthwise, 196, 256, 9),
        layer("pw7", LayerKind::pointwise, 196, 512, 256),
        layer("dw8", LayerKind::depthwise, 196, 512, 9),
        layer("pw8", LayerKind::pointwise, 196, 512, 512),
        layer("dw9", LayerKind::depthwise, 49, 512, 9),
        layer("pw9", LayerKind::pointwise, 49, 1024, 512),
        layer("fc", LayerKind::fc, 128, 1000, 1024, false),
    };
    return model;
}

ModelSpec
makeResnet()
{
    // ResNet-50: representative bottleneck blocks per stage
    // (1x1 reduce, 3x3, 1x1 expand) plus stem and head.
    ModelSpec model;
    model.name = "resnet";
    model.layers = {
        layer("conv1_7x7", LayerKind::conv, 12544, 64, 147),
        layer("s2_1x1r", LayerKind::pointwise, 3136, 64, 64),
        layer("s2_3x3", LayerKind::conv, 3136, 64, 576),
        layer("s2_1x1e", LayerKind::pointwise, 3136, 256, 64),
        layer("s3_1x1r", LayerKind::pointwise, 784, 128, 256),
        layer("s3_3x3", LayerKind::conv, 784, 128, 1152),
        layer("s3_1x1e", LayerKind::pointwise, 784, 512, 128),
        layer("s4_1x1r", LayerKind::pointwise, 196, 256, 512),
        layer("s4_3x3", LayerKind::conv, 196, 256, 2304),
        layer("s4_1x1e", LayerKind::pointwise, 196, 1024, 256),
        layer("s5_1x1r", LayerKind::pointwise, 49, 512, 1024),
        layer("s5_3x3", LayerKind::conv, 49, 512, 4608),
        layer("s5_1x1e", LayerKind::pointwise, 49, 2048, 512),
        layer("fc", LayerKind::fc, 128, 1000, 2048, false),
    };
    return model;
}

ModelSpec
makeBert()
{
    // BERT-base encoder layer at sequence length 512, hidden 768,
    // FFN 3072: QKV projections, attention score/context GEMMs, the
    // output projection, and the two FFN GEMMs. Three encoder layers
    // stand in for the twelve (identical shapes).
    ModelSpec model;
    model.name = "bert";
    for (int enc = 0; enc < 3; ++enc) {
        const std::string p = "enc" + std::to_string(enc) + "_";
        auto add = [&](const char *suffix, LayerKind kind,
                       std::uint32_t m, std::uint32_t n,
                       std::uint32_t k, bool relu) {
            model.layers.push_back(
                layer((p + suffix).c_str(), kind, m, n, k, relu));
        };
        add("qkv", LayerKind::fc, 512, 2304, 768, false);
        // 12 heads x score: (512 x 64) * (64 x 512); folded to one
        // GEMM of equivalent volume per head group.
        add("attn_score", LayerKind::attention, 512, 512, 768, false);
        add("attn_ctx", LayerKind::attention, 512, 768, 512, false);
        add("attn_out", LayerKind::fc, 512, 768, 768, false);
        add("ffn1", LayerKind::fc, 512, 3072, 768, true);
        add("ffn2", LayerKind::fc, 512, 768, 3072, false);
    }
    model.name = "bert";
    return model;
}

} // namespace

std::vector<DecoderId>
allDecoders()
{
    return {DecoderId::tinygpt, DecoderId::gpt2s};
}

const char *
decoderName(DecoderId id)
{
    switch (id) {
      case DecoderId::tinygpt:
        return "tinygpt";
      case DecoderId::gpt2s:
        return "gpt2s";
    }
    return "?";
}

DecoderSpec
makeDecoder(DecoderId id)
{
    DecoderSpec d;
    switch (id) {
      case DecoderId::tinygpt:
        // Small enough that serving sweeps stay fast: two blocks,
        // width 128, short prompt.
        d.name = "tinygpt";
        d.blocks = 2;
        d.hidden = 128;
        d.ffn = 512;
        d.heads = 4;
        d.prompt = 32;
        break;
      case DecoderId::gpt2s:
        // GPT-2-small shapes (hidden 768, FFN 3072); three blocks
        // stand for the twelve, like the BERT encoder above.
        d.name = "gpt2s";
        d.blocks = 3;
        d.hidden = 768;
        d.ffn = 3072;
        d.heads = 12;
        d.prompt = 128;
        break;
    }
    return d;
}

namespace
{

LayerSpec
streamed(LayerSpec spec)
{
    spec.stream_weights = true;
    return spec;
}

/** The six GEMMs of one decoder block at sequence length @p m and
 *  attention context @p ctx. */
void
addBlock(ModelSpec &model, const DecoderSpec &d, std::uint32_t blk,
         std::uint32_t m, std::uint32_t ctx, bool decode)
{
    const std::string p = "blk" + std::to_string(blk) + "_";
    auto add = [&](const char *suffix, LayerSpec spec) {
        spec.name = p + suffix;
        model.layers.push_back(std::move(spec));
    };
    add("qkv", layer("", LayerKind::fc, m, 3 * d.hidden, d.hidden,
                     false));
    // Attention score: Q[m x h] * K^T[h x ctx]. In decode the weight
    // operand IS the K cache, re-read from DRAM every token.
    LayerSpec score =
        layer("", LayerKind::attention, m, ctx, d.hidden, false);
    LayerSpec context =
        layer("", LayerKind::attention, m, d.hidden, ctx, false);
    if (decode) {
        score = streamed(score);
        context = streamed(context);
    }
    add("attn_score", score);
    add("attn_ctx", context);
    add("attn_out",
        layer("", LayerKind::fc, m, d.hidden, d.hidden, false));
    add("ffn1", layer("", LayerKind::fc, m, d.ffn, d.hidden, true));
    add("ffn2", layer("", LayerKind::fc, m, d.hidden, d.ffn, false));
}

} // namespace

ModelSpec
makePrefill(const DecoderSpec &d)
{
    ModelSpec model;
    model.name = d.name + "_prefill";
    for (std::uint32_t blk = 0; blk < d.blocks; ++blk)
        addBlock(model, d, blk, d.prompt, d.prompt, false);
    return model;
}

ModelSpec
makeDecodeStep(const DecoderSpec &d, std::uint32_t position)
{
    const std::uint32_t ctx = d.contextAt(position);
    ModelSpec model;
    model.name = d.name + "_decode_ctx" + std::to_string(ctx);
    for (std::uint32_t blk = 0; blk < d.blocks; ++blk)
        addBlock(model, d, blk, 1, ctx, true);
    return model;
}

DecodeSchedule
makeDecodeSchedule(const DecoderSpec &d, std::uint32_t tokens)
{
    DecodeSchedule sched;
    std::uint32_t last_ctx = 0;
    for (std::uint32_t t = 0; t < tokens; ++t) {
        const std::uint32_t ctx = d.contextAt(t);
        if (ctx != last_ctx) {
            sched.shapes.push_back(makeDecodeStep(d, t));
            last_ctx = ctx;
        }
        sched.step_shape.push_back(
            static_cast<std::uint32_t>(sched.shapes.size() - 1));
    }
    return sched;
}

ModelSpec
makeModel(ModelId id)
{
    switch (id) {
      case ModelId::googlenet:
        return makeGooglenet();
      case ModelId::alexnet:
        return makeAlexnet();
      case ModelId::yololite:
        return makeYololite();
      case ModelId::mobilenet:
        return makeMobilenet();
      case ModelId::resnet:
        return makeResnet();
      case ModelId::bert:
        return makeBert();
    }
    fatal("unknown model id");
}

} // namespace snpu
