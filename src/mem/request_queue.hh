/**
 * @file
 * One demand queue of the memory controller (read or write), stored as
 * a fixed-capacity pool of request slots with a per-bank index.
 *
 * FR-FCFS asks two questions of a queue every scheduling cycle: which
 * is the oldest request that hits its bank's open row on a bank ready
 * for a column command, and which is the oldest request of each bank
 * (it decides the bank's ACT or conflict PRE). A front-to-back queue
 * scan answers both in O(queue). The index answers them in O(banks with
 * work):
 *
 *  - Every slot carries an arrival sequence number, increasing across
 *    the queue's lifetime. Queue order is sequence order, so "older"
 *    means "smaller sequence number", and the request a queue walk
 *    meets first among any set of candidates is the one with the
 *    smallest sequence number.
 *  - The slots of one bank form an intrusive doubly linked FIFO in
 *    arrival order; its head is the bank's oldest request.
 *  - Per bank, the count of queued requests, the count of those that
 *    hit the bank's open row and the slot of the oldest such hit.
 *  - Two bitmasks over banks: banks with queued work, and banks with at
 *    least one open-row hit. The owner reports every row change
 *    (setOpenRow). Scheduler passes visit only the set bits they need
 *    and compare sequence numbers, so no pass walks the queue.
 *
 * Requests leave the queue only by being served as their bank's oldest
 * row hit, so eraseOldestHit() is the one removal.
 */

#ifndef HIRA_MEM_REQUEST_QUEUE_HH
#define HIRA_MEM_REQUEST_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "mem/request.hh"

namespace hira {

/** One bit per bank: bank b is bit b % 64 of word b / 64. */
class BankMask
{
  public:
    explicit BankMask(std::size_t banks) : bits((banks + 63) / 64, 0) {}

    bool test(std::size_t bank) const
    {
        return (bits[bank >> 6] >> (bank & 63)) & 1;
    }
    void
    set(std::size_t bank, bool on)
    {
        std::uint64_t bit = std::uint64_t{1} << (bank & 63);
        if (on)
            bits[bank >> 6] |= bit;
        else
            bits[bank >> 6] &= ~bit;
    }
    std::size_t words() const { return bits.size(); }
    std::uint64_t word(std::size_t w) const { return bits[w]; }

  private:
    std::vector<std::uint64_t> bits;
};

class RequestQueue
{
  public:
    /** End-of-list marker for slot and bank links. */
    static constexpr int kNone = -1;

    RequestQueue(int capacity, std::size_t banks)
        : slots(static_cast<std::size_t>(capacity)), links(banks),
          queued_(banks, 0), hits_(banks, 0), workBits(banks), hitBits(banks)
    {
        hira_assert(capacity > 0 && capacity <= 0xffff);
        freeSlots.reserve(slots.size());
        for (int s = capacity - 1; s >= 0; --s)
            freeSlots.push_back(s);
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots.size(); }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= slots.size(); }

    /**
     * Append @p req to bank @p bank's list; @p hit says whether it
     * targets the bank's open row. The queue must not be full.
     */
    void
    push(const Request &req, std::size_t bank, bool hit)
    {
        hira_assert(!full());
        int s = freeSlots.back();
        freeSlots.pop_back();
        Slot &e = slots[static_cast<std::size_t>(s)];
        BankLinks &b = links[bank];
        e.req = req;
        e.seq = nextSeq++;
        e.prev = b.tail;
        e.next = kNone;
        e.live = true;
        if (b.tail == kNone) {
            b.head = s;
            workBits.set(bank, true);
        } else {
            slots[static_cast<std::size_t>(b.tail)].next = s;
        }
        b.tail = s;
        ++queued_[bank];
        if (hit) {
            if (hits_[bank] == 0) {
                b.firstHit = s;
                hitBits.set(bank, true);
            }
            ++hits_[bank];
        }
        ++size_;
    }

    /** Remove bank @p bank's oldest open-row hit (it was served). */
    void
    eraseOldestHit(std::size_t bank)
    {
        BankLinks &b = links[bank];
        const int slot = b.firstHit;
        hira_assert(slot != kNone);
        Slot &e = slots[static_cast<std::size_t>(slot)];
        if (e.prev == kNone)
            b.head = e.next;
        else
            slots[static_cast<std::size_t>(e.prev)].next = e.next;
        if (e.next == kNone)
            b.tail = e.prev;
        else
            slots[static_cast<std::size_t>(e.next)].prev = e.prev;
        e.live = false;
        freeSlots.push_back(slot);
        --size_;
        if (--queued_[bank] == 0)
            workBits.set(bank, false);
        // The served request was on the open row; the next hit is the
        // first younger request on that row.
        if (--hits_[bank] == 0) {
            b.firstHit = kNone;
            hitBits.set(bank, false);
        } else {
            int n = e.next;
            while (at(n).da.row != e.req.da.row)
                n = next(n);
            b.firstHit = n;
        }
    }

    /**
     * Bank @p bank's open row changed to @p row (kNoRow: closed):
     * recount its hits from the bank's list.
     */
    void
    setOpenRow(std::size_t bank, RowId row)
    {
        BankLinks &b = links[bank];
        std::uint16_t n = 0;
        b.firstHit = kNone;
        if (row != kNoRow) {
            for (int s = b.head; s != kNone; s = next(s)) {
                if (at(s).da.row == row && n++ == 0)
                    b.firstHit = s;
            }
        }
        hits_[bank] = n;
        hitBits.set(bank, n != 0);
    }

    // ----- per-bank index ---------------------------------------------

    std::uint16_t queued(std::size_t bank) const { return queued_[bank]; }
    std::uint16_t hits(std::size_t bank) const { return hits_[bank]; }
    /** Banks with queued work. */
    const BankMask &workMask() const { return workBits; }
    /** Banks with a queued open-row hit. */
    const BankMask &hitMask() const { return hitBits; }
    /** Slot of the bank's oldest open-row hit, or kNone. */
    int oldestHit(std::size_t bank) const { return links[bank].firstHit; }

    /** True if a queued request of @p bank is for line @p addr. */
    bool
    holdsLine(std::size_t bank, Addr addr) const
    {
        for (int s = head(bank); s != kNone; s = next(s)) {
            if (at(s).addr == addr)
                return true;
        }
        return false;
    }

    // ----- traversal --------------------------------------------------

    /** Oldest slot of @p bank, or kNone. */
    int head(std::size_t bank) const { return links[bank].head; }
    /** Next-younger slot of the same bank, or kNone. */
    int next(int slot) const
    {
        return slots[static_cast<std::size_t>(slot)].next;
    }
    const Request &at(int slot) const
    {
        return slots[static_cast<std::size_t>(slot)].req;
    }
    std::uint64_t seq(int slot) const
    {
        return slots[static_cast<std::size_t>(slot)].seq;
    }
    /** True if @p slot holds a queued request (pool-order audits). */
    bool live(int slot) const
    {
        return slots[static_cast<std::size_t>(slot)].live;
    }

  private:
    struct Slot
    {
        Request req;
        std::uint64_t seq = 0;
        int prev = kNone, next = kNone; //!< same-bank neighbours
        bool live = false;
    };

    struct BankLinks
    {
        int head = kNone, tail = kNone; //!< arrival-order list
        int firstHit = kNone;           //!< oldest open-row hit
    };

    std::vector<Slot> slots;
    std::vector<int> freeSlots;
    std::vector<BankLinks> links;
    // Per-bank counts apart from the links: the controller's wake scan
    // reads them for every bank.
    std::vector<std::uint16_t> queued_, hits_;
    BankMask workBits, hitBits;
    std::size_t size_ = 0;
    std::uint64_t nextSeq = 0;
};

} // namespace hira

#endif // HIRA_MEM_REQUEST_QUEUE_HH
