#include "workload/workloads.hh"

#include <algorithm>

#include "common/log.hh"

namespace hades::workload
{

using txn::Request;
using txn::TxnProgram;

const char *
appKindName(AppKind app)
{
    switch (app) {
      case AppKind::YcsbA:
        return "wA";
      case AppKind::YcsbB:
        return "wB";
      case AppKind::YcsbE:
        return "wE";
      case AppKind::YcsbWriteOnly:
        return "100%WR";
      case AppKind::YcsbHalf:
        return "50%WR-50%RD";
      case AppKind::YcsbReadOnly:
        return "100%RD";
      case AppKind::Tpcc:
        return "TPCC";
      case AppKind::Tatp:
        return "TATP";
      case AppKind::Smallbank:
        return "Smallbank";
      default:
        return "?";
    }
}

namespace
{

/**
 * YCSB over one of the four key-value stores: transactions of
 * cfg.reqsPerTxn client requests on zipfian keys, each preceded by the
 * store's index traversal. Writes update one field of the record
 * (partial write); reads fetch the whole value.
 */
class YcsbGenerator : public WorkloadGenerator
{
  public:
    YcsbGenerator(kvs::StoreKind store, double write_fraction,
                  const char *suffix, const WorkloadConfig &cfg,
                  double scan_fraction = 0.0)
        : WorkloadGenerator(cfg),
          store_(kvs::makeStore(store, cfg.numNodes, cfg.salt)),
          writeFraction_(write_fraction),
          scanFraction_(scan_fraction),
          suffix_(suffix),
          zipf_(cfg.scaleKeys, cfg.zipfTheta)
    {}

    std::string
    label() const override
    {
        return std::string(store_->name()) + "-" + suffix_;
    }

    std::uint64_t numRecords() const override { return cfg_.scaleKeys; }

    void
    bind(mem::Placement &placement, std::uint64_t record_base) override
    {
        attach(placement, record_base);
        store_->populate(placement, cfg_.scaleKeys, record_base);
    }

    TxnProgram
    next(Rng &rng, NodeId node) override
    {
        TxnProgram prog;
        prog.computeCyclesPerRequest = 150;
        std::vector<kvs::IndexStep> steps;
        for (std::uint32_t i = 0; i < cfg_.reqsPerTxn; ++i) {
            Key k = zipf_.sample(rng);
            k = shapeLocality(rng, k, cfg_.scaleKeys, node);
            steps.clear();
            if (scanFraction_ > 0.0 && rng.chance(scanFraction_)) {
                // YCSB-E style short range scan: index chain plus the
                // covered data records.
                std::uint32_t len =
                    2 + std::uint32_t(rng.below(8)); // avg ~5 keys
                if (k + len > cfg_.scaleKeys)
                    k = cfg_.scaleKeys - len;
                store_->scan(k, len, steps);
                for (const auto &s : steps) {
                    Request idx;
                    idx.record = s.record;
                    idx.recordPayloadBytes = s.bytes;
                    idx.isIndex = true;
                    prog.requests.push_back(idx);
                }
                for (std::uint32_t j = 0; j < len; ++j) {
                    Request data;
                    data.record = recordBase_ + k + j;
                    prog.requests.push_back(data);
                }
                continue;
            }
            store_->lookup(k, steps);
            for (const auto &s : steps) {
                Request idx;
                idx.record = s.record;
                idx.isWrite = false;
                idx.recordPayloadBytes = s.bytes;
                idx.isIndex = true;
                prog.requests.push_back(idx);
            }
            Request data;
            data.record = recordBase_ + k;
            if (rng.chance(writeFraction_)) {
                // Update one field: a partial, unaligned write.
                data.isWrite = true;
                data.offsetBytes = 32;
                data.sizeBytes = 100;
                data.delta = std::int64_t(rng.below(1000));
            }
            prog.requests.push_back(data);
        }
        return prog;
    }

  private:
    std::unique_ptr<kvs::KeyValueStore> store_;
    double writeFraction_;
    double scanFraction_;
    const char *suffix_;
    ZipfGenerator zipf_;
};

/**
 * Simplified TPC-C: the canonical five-transaction mix against
 * warehouse/district/customer/item/stock/order tables, with the paper's
 * headline characteristics -- many (~13.5) small fine-grained requests
 * per transaction and a write-heavy profile. Inserts (orders, history)
 * are modeled as writes to pre-allocated rows.
 */
class TpccGenerator : public WorkloadGenerator
{
  public:
    explicit TpccGenerator(const WorkloadConfig &cfg)
        : WorkloadGenerator(cfg),
          numItems_(cfg.scaleKeys),
          warehouses_(cfg.numNodes * 4),
          districtsPerWh_(10),
          customersPerDistrict_(300)
    {
        // Table layout inside the data-record space.
        itemBase_ = 0;
        stockBase_ = itemBase_ + numItems_;
        whBase_ = stockBase_ + numItems_;
        districtBase_ = whBase_ + warehouses_;
        customerBase_ =
            districtBase_ + warehouses_ * districtsPerWh_;
        orderBase_ = customerBase_ + warehouses_ * districtsPerWh_ *
                                         customersPerDistrict_;
        orderSlots_ = warehouses_ * districtsPerWh_ * 64;
        total_ = orderBase_ + orderSlots_;
    }

    std::string label() const override { return "TPCC"; }
    std::uint64_t numRecords() const override { return total_; }

    void
    bind(mem::Placement &placement, std::uint64_t record_base) override
    {
        attach(placement, record_base);
    }

    TxnProgram
    next(Rng &rng, NodeId node) override
    {
        TxnProgram prog;
        prog.computeCyclesPerRequest = 120; // few instructions/request
        std::uint64_t wh = rng.below(warehouses_);
        std::uint64_t district =
            wh * districtsPerWh_ + rng.below(districtsPerWh_);
        std::uint64_t customer = district * customersPerDistrict_ +
                                 rng.below(customersPerDistrict_);

        auto pct = rng.below(100);
        if (pct < 45) { // NewOrder
            read(prog, rng, node, whBase_ + wh, 16);
            read(prog, rng, node, districtBase_ + district, 32);
            write(prog, rng, node, districtBase_ + district, 8);
            read(prog, rng, node, customerBase_ + customer, 60);
            std::uint64_t lines = 4 + rng.below(5); // avg ~6 items
            for (std::uint64_t l = 0; l < lines; ++l) {
                std::uint64_t item = rng.below(numItems_);
                read(prog, rng, node, itemBase_ + item, 24);
                read(prog, rng, node, stockBase_ + item, 48);
                write(prog, rng, node, stockBase_ + item, 16);
            }
            std::uint64_t slot = rng.below(orderSlots_);
            write(prog, rng, node, orderBase_ + slot, 64);
        } else if (pct < 88) { // Payment
            read(prog, rng, node, whBase_ + wh, 16);
            write(prog, rng, node, whBase_ + wh, 8);
            read(prog, rng, node, districtBase_ + district, 16);
            write(prog, rng, node, districtBase_ + district, 8);
            read(prog, rng, node, customerBase_ + customer, 60);
            write(prog, rng, node, customerBase_ + customer, 24);
        } else if (pct < 92) { // OrderStatus (read only)
            read(prog, rng, node, customerBase_ + customer, 60);
            std::uint64_t slot = rng.below(orderSlots_);
            read(prog, rng, node, orderBase_ + slot, 64);
            read(prog, rng, node,
                 orderBase_ + (slot + 1) % orderSlots_, 64);
        } else if (pct < 96) { // Delivery
            for (int d = 0; d < 4; ++d) {
                std::uint64_t slot = rng.below(orderSlots_);
                read(prog, rng, node, orderBase_ + slot, 64);
                write(prog, rng, node, orderBase_ + slot, 8);
            }
        } else { // StockLevel (read only)
            read(prog, rng, node, districtBase_ + district, 16);
            for (int i = 0; i < 8; ++i) {
                std::uint64_t item = rng.below(numItems_);
                read(prog, rng, node, stockBase_ + item, 8);
            }
        }
        return prog;
    }

  private:
    void
    read(TxnProgram &p, Rng &rng, NodeId node, std::uint64_t rec,
         std::uint32_t bytes)
    {
        Request r;
        r.record =
            recordBase_ + shapeLocality(rng, rec, total_, node);
        r.isWrite = false;
        r.sizeBytes = bytes;
        p.requests.push_back(r);
    }

    void
    write(TxnProgram &p, Rng &rng, NodeId node, std::uint64_t rec,
          std::uint32_t bytes)
    {
        Request r;
        r.record =
            recordBase_ + shapeLocality(rng, rec, total_, node);
        r.isWrite = true;
        r.offsetBytes = 8;
        r.sizeBytes = bytes;
        r.delta = std::int64_t(rng.below(100));
        p.requests.push_back(r);
    }

    std::uint64_t numItems_, warehouses_, districtsPerWh_,
        customersPerDistrict_;
    std::uint64_t itemBase_, stockBase_, whBase_, districtBase_,
        customerBase_, orderBase_, orderSlots_, total_;
};

/**
 * TATP: telecom database with 80% read / 20% write requests and a
 * small number of requests per transaction. Subscribers own one
 * subscriber row plus access-info and special-facility rows.
 */
class TatpGenerator : public WorkloadGenerator
{
  public:
    explicit TatpGenerator(const WorkloadConfig &cfg)
        : WorkloadGenerator(cfg), subscribers_(cfg.scaleKeys)
    {
        subBase_ = 0;
        accessBase_ = subBase_ + subscribers_;
        facilityBase_ = accessBase_ + subscribers_;
        total_ = facilityBase_ + subscribers_;
    }

    std::string label() const override { return "TATP"; }
    std::uint64_t numRecords() const override { return total_; }

    void
    bind(mem::Placement &placement, std::uint64_t record_base) override
    {
        attach(placement, record_base);
    }

    TxnProgram
    next(Rng &rng, NodeId node) override
    {
        TxnProgram prog;
        prog.computeCyclesPerRequest = 180;
        std::uint64_t sub = rng.below(subscribers_);

        auto pct = rng.below(100);
        if (pct < 35) { // GetSubscriberData
            read(prog, rng, node, subBase_ + sub, 0);
        } else if (pct < 55) { // GetNewDestination
            read(prog, rng, node, facilityBase_ + sub, 32);
            read(prog, rng, node, accessBase_ + sub, 32);
        } else if (pct < 80) { // GetAccessData
            read(prog, rng, node, accessBase_ + sub, 32);
        } else if (pct < 94) { // UpdateLocation / UpdateSubscriberData
            read(prog, rng, node, subBase_ + sub, 0);
            write(prog, rng, node, subBase_ + sub, 8);
        } else { // Update special facility
            read(prog, rng, node, facilityBase_ + sub, 32);
            write(prog, rng, node, facilityBase_ + sub, 16);
        }
        return prog;
    }

  private:
    void
    read(TxnProgram &p, Rng &rng, NodeId node, std::uint64_t rec,
         std::uint32_t bytes)
    {
        Request r;
        r.record =
            recordBase_ + shapeLocality(rng, rec, total_, node);
        r.isWrite = false;
        r.sizeBytes = bytes;
        p.requests.push_back(r);
    }

    void
    write(TxnProgram &p, Rng &rng, NodeId node, std::uint64_t rec,
          std::uint32_t bytes)
    {
        Request r;
        r.record =
            recordBase_ + shapeLocality(rng, rec, total_, node);
        r.isWrite = true;
        r.offsetBytes = 16;
        r.sizeBytes = bytes;
        r.delta = std::int64_t(rng.below(1 << 20));
        p.requests.push_back(r);
    }

    std::uint64_t subscribers_, subBase_, accessBase_, facilityBase_,
        total_;
};

/**
 * Smallbank: each customer owns a checking and a savings record; the
 * canonical six-transaction mix is ~46% writes. Money-moving
 * transactions use derived writes, so the total balance is a
 * conserved quantity the test suite checks for serializability.
 */
class SmallbankGenerator : public WorkloadGenerator
{
  public:
    explicit SmallbankGenerator(const WorkloadConfig &cfg)
        : WorkloadGenerator(cfg), accounts_(cfg.scaleKeys)
    {
        checkingBase_ = 0;
        savingsBase_ = accounts_;
        total_ = 2 * accounts_;
    }

    std::string label() const override { return "Smallbank"; }
    std::uint64_t numRecords() const override { return total_; }

    void
    bind(mem::Placement &placement, std::uint64_t record_base) override
    {
        attach(placement, record_base);
    }

    TxnProgram
    next(Rng &rng, NodeId node) override
    {
        TxnProgram prog;
        prog.computeCyclesPerRequest = 160;
        std::uint64_t a =
            shapeLocality(rng, rng.below(accounts_), accounts_, node);
        std::uint64_t b =
            shapeLocality(rng, rng.below(accounts_), accounts_, node);
        if (b == a)
            b = (a + 1) % accounts_;

        auto pct = rng.below(100);
        if (pct < 15) { // Balance (read-only)
            read(prog, checkingBase_ + a);
            read(prog, savingsBase_ + a);
        } else if (pct < 40) { // DepositChecking
            read(prog, checkingBase_ + a);
            derivedWrite(prog, checkingBase_ + a, 0,
                         std::int64_t(rng.below(100)) + 1);
        } else if (pct < 55) { // TransactSavings
            read(prog, savingsBase_ + a);
            derivedWrite(prog, savingsBase_ + a, 0,
                         std::int64_t(rng.below(100)) + 1);
        } else if (pct < 70) { // Amalgamate: move savings into checking
            read(prog, savingsBase_ + a);
            read(prog, checkingBase_ + a);
            // checking += savings; savings = 0 would break the simple
            // derived-write model; move a fixed slice instead.
            std::int64_t amount = 25;
            derivedWrite(prog, savingsBase_ + a, 0, -amount);
            derivedWrite(prog, checkingBase_ + a, 1, amount);
        } else if (pct < 85) { // WriteCheck
            read(prog, savingsBase_ + a);
            read(prog, checkingBase_ + a);
            derivedWrite(prog, checkingBase_ + a, 1,
                         -(std::int64_t(rng.below(50)) + 1));
        } else { // SendPayment: transfer between two customers
            read(prog, checkingBase_ + a);
            read(prog, checkingBase_ + b);
            std::int64_t amount = std::int64_t(rng.below(100)) + 1;
            derivedWrite(prog, checkingBase_ + a, 0, -amount);
            derivedWrite(prog, checkingBase_ + b, 1, amount);
        }
        return prog;
    }

  private:
    void
    read(TxnProgram &p, std::uint64_t rec)
    {
        Request r;
        r.record = recordBase_ + rec;
        r.isWrite = false;
        r.sizeBytes = 64;
        p.requests.push_back(r);
    }

    void
    derivedWrite(TxnProgram &p, std::uint64_t rec, int read_idx,
                 std::int64_t delta)
    {
        Request r;
        r.record = recordBase_ + rec;
        r.isWrite = true;
        r.offsetBytes = 0;
        r.sizeBytes = 64;
        r.derivedFromReadIdx = read_idx;
        r.delta = delta;
        p.requests.push_back(r);
    }

    std::uint64_t accounts_, checkingBase_, savingsBase_, total_;
};

} // namespace

std::unique_ptr<WorkloadGenerator>
makeWorkload(AppKind app, kvs::StoreKind store, const WorkloadConfig &cfg)
{
    switch (app) {
      case AppKind::YcsbA:
        return std::make_unique<YcsbGenerator>(store, 0.50, "wA", cfg);
      case AppKind::YcsbB:
        return std::make_unique<YcsbGenerator>(store, 0.05, "wB", cfg);
      case AppKind::YcsbE:
        return std::make_unique<YcsbGenerator>(store, 0.05, "wE", cfg,
                                               /*scan_fraction=*/0.95);
      case AppKind::YcsbWriteOnly:
        return std::make_unique<YcsbGenerator>(store, 1.00, "100W",
                                               cfg);
      case AppKind::YcsbHalf:
        return std::make_unique<YcsbGenerator>(store, 0.50, "50W50R",
                                               cfg);
      case AppKind::YcsbReadOnly:
        return std::make_unique<YcsbGenerator>(store, 0.00, "100R",
                                               cfg);
      case AppKind::Tpcc:
        return std::make_unique<TpccGenerator>(cfg);
      case AppKind::Tatp:
        return std::make_unique<TatpGenerator>(cfg);
      case AppKind::Smallbank:
        return std::make_unique<SmallbankGenerator>(cfg);
    }
    panic("unknown workload");
}

} // namespace hades::workload
