/**
 * @file
 * FlatTable — an open-addressing hash table from 64-bit integer keys
 * to small values, for lookups made once per trace event.
 *
 * A node-based map (std::unordered_map, std::map) pays a heap
 * allocation per entry. FlatTable keeps every entry in one
 * power-of-two array with linear probing and Fibonacci hashing, so
 * it allocates only when it grows, and not at all when it is sized
 * for its keys up front. Erase shifts the entries behind the erased
 * one back, so the table holds only live keys and needs no
 * tombstones.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace pinpoint {

/**
 * Open-addressing table from @p Key (an unsigned 64-bit integer) to
 * @p Value. Growing invalidates references into the table.
 */
template <typename Key, typename Value>
class FlatTable
{
    static_assert(std::is_unsigned_v<Key> && sizeof(Key) == 8,
                  "FlatTable keys are unsigned 64-bit integers");

  public:
    /** An empty table that holds @p expected keys without growing. */
    explicit FlatTable(std::size_t expected = 0)
    {
        std::size_t capacity = 8;
        unsigned bits = 3;
        while (capacity < 2 * expected) {
            capacity *= 2;
            ++bits;
        }
        entries_.resize(capacity);
        shift_ = 64 - bits;
    }

    /**
     * @return the value of @p key, and whether this call inserted it
     * (value-initialized).
     */
    std::pair<Value &, bool>
    try_emplace(Key key)
    {
        if (2 * (size_ + 1) > entries_.size())
            grow();
        Entry &e = entries_[index_of(key)];
        const bool inserted = !e.used;
        if (inserted) {
            e = Entry{key, Value{}, true};
            ++size_;
        }
        return {e.value, inserted};
    }

    /**
     * Removes @p key, if present, in the one probe that finds it.
     * @return the removed value, or nothing when @p key was absent.
     */
    std::optional<Value>
    erase(Key key)
    {
        std::size_t hole = index_of(key);
        if (!entries_[hole].used)
            return std::nullopt;
        std::optional<Value> removed(std::move(entries_[hole].value));
        const std::size_t mask = entries_.size() - 1;
        // Backward-shift deletion: an entry of the probe run after
        // the hole moves into it when the hole lies between the
        // entry's home and its place.
        for (std::size_t j = (hole + 1) & mask; entries_[j].used;
             j = (j + 1) & mask) {
            const std::size_t from_home =
                (j - home(entries_[j].key)) & mask;
            if (from_home >= ((j - hole) & mask)) {
                entries_[hole] = entries_[j];
                hole = j;
            }
        }
        entries_[hole].used = false;
        --size_;
        return removed;
    }

    /** @return the value of @p key, or nullptr when absent. */
    const Value *
    find(Key key) const
    {
        const Entry &e = entries_[index_of(key)];
        return e.used ? &e.value : nullptr;
    }

    /** @return number of keys. */
    std::size_t size() const { return size_; }

    /**
     * Calls @p visit(key, value) for every key in slot order, which
     * depends on the order keys arrived in as well as on the keys.
     */
    template <typename Visit>
    void
    for_each(Visit &&visit) const
    {
        for (const Entry &e : entries_)
            if (e.used)
                visit(e.key, e.value);
    }

  private:
    struct Entry {
        Key key = 0;
        Value value{};
        bool used = false;
    };

    /** @return the first index @p key's probe visits. */
    std::size_t
    home(Key key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                        shift_);
    }

    /** @return the index of @p key's entry, or of the empty one it
     *  would take. */
    std::size_t
    index_of(Key key) const
    {
        const std::size_t mask = entries_.size() - 1;
        std::size_t i = home(key);
        while (entries_[i].used && entries_[i].key != key)
            i = (i + 1) & mask;
        return i;
    }

    void
    grow()
    {
        std::vector<Entry> old(entries_.size() * 2);
        old.swap(entries_);
        --shift_;
        for (const Entry &e : old)
            if (e.used)
                entries_[index_of(e.key)] = e;
    }

    std::vector<Entry> entries_;
    std::size_t size_ = 0;
    unsigned shift_ = 61;
};

}  // namespace pinpoint
