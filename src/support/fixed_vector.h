/**
 * @file
 * A fixed-capacity vector with inline storage.
 *
 * For short lists whose bound is a static property of the model — the
 * three flag groups of a FlagMask, the four candidate registers of a
 * RegPool sub-pool — returned by value from code that runs once per
 * generated or simulated instruction. A std::vector there costs one
 * heap allocation per call; a FixedVector costs none. Exceeding the
 * capacity is an internal bug and panics.
 */

#ifndef UOPS_SUPPORT_FIXED_VECTOR_H
#define UOPS_SUPPORT_FIXED_VECTOR_H

#include <array>
#include <cstddef>
#include <initializer_list>
#include <type_traits>

#include "support/status.h"

namespace uops {

template <typename T, size_t N>
class FixedVector
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "FixedVector holds trivially copyable types only");

  public:
    FixedVector() = default;

    FixedVector(std::initializer_list<T> items)
    {
        for (const T &item : items)
            push_back(item);
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const T *begin() const { return items_.data(); }
    const T *end() const { return items_.data() + size_; }

    const T &operator[](size_t i) const { return items_[i]; }
    const T &front() const { return items_[0]; }

    void
    push_back(const T &value)
    {
        panicIf(size_ == N, "FixedVector: capacity ", N, " exceeded");
        items_[size_++] = value;
    }

  private:
    std::array<T, N> items_{};
    size_t size_ = 0;
};

} // namespace uops

#endif // UOPS_SUPPORT_FIXED_VECTOR_H
