#include "blob_store.h"

#include "server/json.h"
#include "support/hash.h"
#include "support/obs/trace.h"

namespace uops::server {

void
writeRecordJson(JsonWriter &json, const db::RecordView &view)
{
    json.beginObject();
    json.member("name", std::string_view(view.name()));
    json.member("mnemonic", std::string_view(view.mnemonic()));
    json.member("extension", std::string_view(view.extension()));
    json.member("uarch", std::string_view(
                             uarch::uarchShortName(view.arch())));
    json.member("ports",
                std::string_view(view.portUsage().toString()));
    json.member("uops", view.uopCount());
    json.member("max_latency", view.maxLatency());

    json.key("throughput").beginObject();
    json.member("measured", view.tpMeasured());
    if (auto v = view.tpWithBreakers())
        json.member("with_dep_breakers", *v);
    if (auto v = view.tpSlow())
        json.member("slow_values", *v);
    if (auto v = view.tpFromPorts())
        json.member("from_ports", *v);
    json.endObject();

    json.key("latency").beginArray();
    for (const isa::ResultLatency &pair : view.latencies()) {
        json.beginObject();
        json.member("src_op", pair.src_op);
        json.member("dst_op", pair.dst_op);
        json.member("cycles", pair.cycles);
        if (pair.upper_bound)
            json.member("upper_bound", true);
        if (pair.slow_cycles)
            json.member("slow_cycles", *pair.slow_cycles);
        json.endObject();
    }
    json.endArray();

    if (auto v = view.sameRegCycles())
        json.member("latency_same_reg", *v);
    if (auto v = view.storeRoundTrip())
        json.member("store_load_roundtrip", *v);
    json.endObject();
}

std::string
renderUArchsBody(const db::DatabaseCatalog &catalog)
{
    JsonWriter json;
    json.beginObject();
    json.key("uarchs").beginArray();
    for (uarch::UArch arch : catalog.uarches()) {
        const uarch::UArchInfo &info = uarch::uarchInfo(arch);
        json.beginObject();
        json.member("name", std::string_view(info.short_name));
        json.member("full_name", std::string_view(info.full_name));
        json.member("processor", std::string_view(info.processor));
        json.member("ports", info.num_ports);
        json.member("records", catalog.numRecords(arch));
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return std::move(json).str();
}

std::shared_ptr<const BlobStore>
BlobStore::build(const db::DatabaseCatalog &catalog)
{
    uint64_t t0_us = obs::traceNowUs();
    auto store = std::shared_ptr<BlobStore>(new BlobStore);
    store->etag_ = hashHex(catalog.contentHash());
    store->uarchs_body_ =
        std::make_shared<const std::string>(renderUArchsBody(catalog));

    // Render every record once, grouped by variant name. Shards are
    // uarch-ascending, so each name's fragment list lands in uarch
    // order.
    struct Pending
    {
        uarch::UArch arch;
        std::string fragment;
    };
    std::unordered_map<std::string, std::vector<Pending>, NameHash,
                       std::equal_to<>>
        by_name;
    size_t records = 0;
    for (const db::ShardEntry &shard : catalog.shards()) {
        const db::InstructionDatabase &db = *shard.db;
        for (size_t row = 0; row < db.numRecords(); ++row) {
            db::RecordView view =
                db.record(static_cast<uint32_t>(row));
            JsonWriter json;
            writeRecordJson(json, view);
            by_name[std::string(view.name())].push_back(
                {shard.arch, std::move(json).str()});
            ++records;
        }
    }

    // Assemble full bodies; fragments become (offset, length) slices
    // into them, so a ?uarch= variant shares the full body's bytes.
    // The manual prefix is byte-for-byte what JsonWriter emits for
    // member("name", ...) followed by key("results").beginArray().
    size_t bytes = store->uarchs_body_->size();
    for (auto &[name, pendings] : by_name) {
        std::string body =
            "{\"name\":\"" + jsonEscape(name) + "\",\"results\":[";
        Entry entry;
        entry.prefix_len = static_cast<uint32_t>(body.size());
        entry.fragments.reserve(pendings.size());
        for (size_t i = 0; i < pendings.size(); ++i) {
            if (i > 0)
                body += ',';
            Fragment fragment;
            fragment.arch = pendings[i].arch;
            fragment.offset = static_cast<uint32_t>(body.size());
            fragment.length =
                static_cast<uint32_t>(pendings[i].fragment.size());
            body += pendings[i].fragment;
            entry.fragments.push_back(fragment);
        }
        body += "]}";
        bytes += body.size();
        entry.body = std::make_shared<const std::string>(
            std::move(body));
        store->instr_.emplace(name, std::move(entry));
    }

    store->stats_.names = store->instr_.size();
    store->stats_.records = records;
    store->stats_.bytes = bytes;
    store->stats_.build_us = obs::traceNowUs() - t0_us;
    return store;
}

std::shared_ptr<const std::string>
BlobStore::instrBody(std::string_view name) const
{
    auto it = instr_.find(name);
    if (it == instr_.end())
        return nullptr;
    return it->second.body;
}

std::shared_ptr<const std::string>
BlobStore::instrBody(std::string_view name, uarch::UArch arch) const
{
    auto it = instr_.find(name);
    if (it == instr_.end())
        return nullptr;
    const Entry &entry = it->second;
    for (const Fragment &fragment : entry.fragments) {
        if (fragment.arch != arch)
            continue;
        const std::string &body = *entry.body;
        auto out = std::make_shared<std::string>();
        out->reserve(entry.prefix_len + fragment.length + 2);
        out->append(body, 0, entry.prefix_len);
        out->append(body, fragment.offset, fragment.length);
        out->append("]}");
        return out;
    }
    return nullptr;
}

bool
BlobStore::hasInstr(std::string_view name) const
{
    return instr_.find(name) != instr_.end();
}

std::string_view
BlobStore::recordFragment(std::string_view name,
                          uarch::UArch arch) const
{
    auto it = instr_.find(name);
    if (it == instr_.end())
        return {};
    const Entry &entry = it->second;
    for (const Fragment &fragment : entry.fragments)
        if (fragment.arch == arch)
            return std::string_view(*entry.body)
                .substr(fragment.offset, fragment.length);
    return {};
}

} // namespace uops::server
