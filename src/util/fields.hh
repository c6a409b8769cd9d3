/**
 * @file
 * Field lists: a struct declares its members once, in a static
 * member template
 *
 *     template <class Self, class F>
 *     static constexpr void fields(Self &self, F &&f)
 *     {
 *         f("json_key", self.member);             // one per member
 *         f("block", self.block, self.hasBlock);  // optional block
 *     }
 *
 * and serialization, sums and the completeness check below walk that
 * list instead of naming the members again.  The three-argument form
 * declares a member that is present only when its flag is set (the
 * flag is a member too, carried by the same entry).
 */

#ifndef CGP_UTIL_FIELDS_HH
#define CGP_UTIL_FIELDS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace cgp
{

namespace detail
{

/** Stands in for any member type when probing aggregate init. */
struct AnyMember
{
    template <class T>
    operator T() const;
};

struct CountFields
{
    std::size_t n = 0;

    template <class M>
    constexpr void operator()(const char *, M &) { ++n; }

    template <class M>
    constexpr void operator()(const char *, M &, bool &) { n += 2; }
};

} // namespace detail

/** Types that declare a field list. */
template <class T>
concept HasFields = requires(T &t) {
    T::fields(t, detail::CountFields{});
};

/**
 * Number of members of aggregate @p T: the most initializers
 * `T{...}` accepts.  No brace elision can occur, since AnyMember
 * converts to every member type directly.
 */
template <class T, class... Init>
constexpr std::size_t
memberCount()
{
    if constexpr (requires { T{Init{}..., detail::AnyMember{}}; })
        return memberCount<T, Init..., detail::AnyMember>();
    else
        return sizeof...(Init);
}

/** Number of members @p T's field list covers. */
template <HasFields T>
constexpr std::size_t
fieldCount()
{
    T t{};
    detail::CountFields count;
    T::fields(t, count);
    return count.n;
}

/**
 * Visit @p self's field list.  Fails to compile when the list misses
 * a member, so no walk can silently skip one.
 */
template <class T, class F>
constexpr void
forEachField(T &self, F &&f)
{
    using Plain = std::remove_const_t<T>;
    static_assert(fieldCount<Plain>() == memberCount<Plain>(),
                  "a member is missing from its struct's field list");
    Plain::fields(self, f);
}

/** Member-wise @p into += @p from over an all-counter field list. */
template <HasFields T>
constexpr void
addFields(T &into, const T &from)
{
    std::array<std::uint64_t, fieldCount<T>()> add{};
    std::size_t i = 0;
    forEachField(from, [&](const char *, const std::uint64_t &v) {
        add[i++] = v;
    });
    i = 0;
    forEachField(into, [&](const char *, std::uint64_t &v) {
        v += add[i++];
    });
}

} // namespace cgp

#endif // CGP_UTIL_FIELDS_HH
