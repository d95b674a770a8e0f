/**
 * @file
 * Unit tests of the discrete-event kernel: ordering, cancellation,
 * rescheduling, one-shot callbacks, and clock-domain arithmetic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "sim/clocked.hh"
#include "sim/eventq.hh"

using namespace fafnir;

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    Event a("a", [&] { order.push_back(1); });
    Event b("b", [&] { order.push_back(2); });
    Event c("c", [&] { order.push_back(3); });
    eq.schedule(c, 30);
    eq.schedule(a, 10);
    eq.schedule(b, 20);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SameTickUsesPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    Event low("low", [&] { order.push_back(1); }, Event::DramPriority);
    Event mid1("mid1", [&] { order.push_back(2); });
    Event mid2("mid2", [&] { order.push_back(3); });
    eq.schedule(mid1, 5);
    eq.schedule(mid2, 5);
    eq.schedule(low, 5);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, DescheduleCancels)
{
    EventQueue eq;
    int fired = 0;
    Event e("e", [&] { ++fired; });
    eq.schedule(e, 10);
    EXPECT_TRUE(e.scheduled());
    eq.deschedule(e);
    EXPECT_FALSE(e.scheduled());
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<Tick> fire_ticks;
    Event e("e", [&] { fire_ticks.push_back(eq.now()); });
    eq.schedule(e, 10);
    eq.schedule(e, 50); // move it
    eq.run();
    EXPECT_EQ(fire_ticks, (std::vector<Tick>{50}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    Event second("second", [&] { ++fired; });
    Event first("first", [&] {
        ++fired;
        eq.schedule(second, eq.now() + 5);
    });
    eq.schedule(first, 1);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueue, RunWithLimitStops)
{
    EventQueue eq;
    int fired = 0;
    Event a("a", [&] { ++fired; });
    Event b("b", [&] { ++fired; });
    eq.schedule(a, 10);
    eq.schedule(b, 100);
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, OneShotCallbacks)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleFn(20, [&] { order.push_back(2); });
    eq.scheduleFn(10, [&] { order.push_back(1); });
    // A one-shot may schedule further one-shots.
    eq.scheduleFn(5, [&] {
        order.push_back(0);
        eq.scheduleFn(15, [&] { order.push_back(9); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 9, 2}));
    EXPECT_EQ(eq.executedCount(), 4u);
}

TEST(EventQueue, PendingCountTracksState)
{
    EventQueue eq;
    Event e("e", [] {});
    EXPECT_EQ(eq.pendingCount(), 0u);
    eq.schedule(e, 10);
    eq.scheduleFn(20, [] {});
    EXPECT_EQ(eq.pendingCount(), 2u);
    eq.deschedule(e);
    EXPECT_EQ(eq.pendingCount(), 1u);
    eq.run();
    EXPECT_EQ(eq.pendingCount(), 0u);
}

TEST(EventQueue, ManyEventsStress)
{
    EventQueue eq;
    std::uint64_t sum = 0;
    for (int i = 0; i < 10000; ++i)
        eq.scheduleFn((i * 7919) % 100000 + 1, [&sum, i] { sum += i; });
    Tick last = 0;
    // Verify monotonic execution via a tracking one-shot chain.
    eq.run();
    (void)last;
    EXPECT_EQ(sum, 10000ull * 9999 / 2);
}

// The queue promises a total order over (tick, priority, insertion
// sequence). This pins it against a stable-sort reference with ticks
// spanning the near window and the far ring, so neither level may
// reorder ties (ThreeLevelsMatchReference adds the heap).
TEST(EventQueue, DeterministicTotalOrder)
{
    EventQueue eq;
    struct Ref
    {
        Tick when;
        int pri;
        int id;
    };
    std::vector<Ref> ref;
    std::vector<int> fired;
    std::vector<std::unique_ptr<Event>> events;
    std::mt19937 rng(1234);
    const int prios[] = {Event::DramPriority, Event::DefaultPriority,
                         Event::StatsPriority};

    Tick last_now = 0;
    for (int id = 0; id < 2000; ++id) {
        const Tick when = 1 + rng() % 50000; // crosses the window edge
        const int pri = prios[rng() % 3];
        const auto record = [&fired, &eq, &last_now, id] {
            EXPECT_GE(eq.now(), last_now);
            last_now = eq.now();
            fired.push_back(id);
        };
        if (rng() % 2 == 0) {
            eq.scheduleFn(when, record, pri);
        } else {
            events.push_back(
                std::make_unique<Event>("det", record, pri));
            eq.schedule(*events.back(), when);
        }
        ref.push_back({when, pri, id});
    }
    eq.run();

    std::stable_sort(ref.begin(), ref.end(),
                     [](const Ref &a, const Ref &b) {
                         return a.when != b.when ? a.when < b.when
                                                 : a.pri < b.pri;
                     });
    std::vector<int> expected;
    for (const Ref &r : ref)
        expected.push_back(r.id);
    EXPECT_EQ(fired, expected);
    EXPECT_TRUE(eq.empty());
}

// Interleaved schedule/reschedule/deschedule against a reference model:
// pendingCount() must track live entries exactly, staleCount() must stay
// bounded by the compaction policy, and the surviving entries must fire
// in (tick, priority, last-schedule order).
TEST(EventQueue, ChurnStressMatchesReference)
{
    EventQueue eq;
    constexpr int kEvents = 24;
    std::vector<int> fired;
    std::vector<std::unique_ptr<Event>> events;
    const int prios[] = {Event::DramPriority, Event::DefaultPriority,
                         Event::StatsPriority};
    for (int i = 0; i < kEvents; ++i) {
        events.push_back(std::make_unique<Event>(
            "churn", [&fired, i] { fired.push_back(i); },
            prios[i % 3]));
    }

    struct Ref
    {
        Tick when;
        int pri;
        std::uint64_t seq;
        int id;
    };
    // Model state: the live entry per event, keyed by last schedule.
    std::array<Ref, kEvents> live;
    std::array<bool, kEvents> alive{};
    std::vector<Ref> oneshots;
    std::uint64_t seq = 0;
    std::size_t model_pending = 0;

    std::mt19937 rng(99);
    int oneshot_id = kEvents;
    for (int op = 0; op < 4000; ++op) {
        const int i = static_cast<int>(rng() % kEvents);
        const Tick when = 1 + rng() % 30000;
        switch (rng() % 4) {
        case 0:
        case 1: // schedule or reschedule
            if (!alive[i])
                ++model_pending;
            alive[i] = true;
            live[i] = {when, events[i]->priority(), seq++, i};
            eq.schedule(*events[i], when);
            break;
        case 2: // deschedule (may be a no-op)
            if (alive[i]) {
                alive[i] = false;
                --model_pending;
            }
            eq.deschedule(*events[i]);
            break;
        case 3: { // one-shot
            const int id = oneshot_id++;
            oneshots.push_back(
                {when, Event::DefaultPriority, seq++, id});
            eq.scheduleFn(when, [&fired, id] { fired.push_back(id); });
            ++model_pending;
            break;
        }
        }
        ASSERT_EQ(eq.pendingCount(), model_pending);
        // Compaction keeps stale entries below max(63, live).
        ASSERT_LE(eq.staleCount(),
                  std::max<std::size_t>(63, eq.pendingCount()));
    }

    std::vector<Ref> expected_entries = oneshots;
    for (int i = 0; i < kEvents; ++i) {
        if (alive[i])
            expected_entries.push_back(live[i]);
    }
    std::sort(expected_entries.begin(), expected_entries.end(),
              [](const Ref &a, const Ref &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.pri != b.pri)
                      return a.pri < b.pri;
                  return a.seq < b.seq;
              });
    std::vector<int> expected;
    for (const Ref &r : expected_entries)
        expected.push_back(r.id);

    eq.run();
    EXPECT_EQ(fired, expected);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pendingCount(), 0u);
    // A full drain also reclaims every stale entry.
    EXPECT_EQ(eq.staleCount(), 0u);
}

// Scheduling into the tick being drained must respect priority against
// the entries still pending at that tick, and a deschedule during the
// drain must cancel a not-yet-fired same-tick entry.
TEST(EventQueue, SameTickScheduleAndCancelDuringDrain)
{
    EventQueue eq;
    std::vector<char> fired;
    Event b("b", [&] { fired.push_back('b'); }, Event::StatsPriority);
    Event c("c", [&] { fired.push_back('c'); }, Event::StatsPriority);
    Event a(
        "a",
        [&] {
            fired.push_back('a');
            eq.deschedule(c);
            // Outranks the pending StatsPriority entries at this tick.
            eq.scheduleFn(
                eq.now(), [&] { fired.push_back('d'); },
                Event::DramPriority);
        },
        Event::DefaultPriority);
    eq.schedule(b, 5);
    eq.schedule(c, 5);
    eq.schedule(a, 5);
    eq.run();
    EXPECT_EQ(fired, (std::vector<char>{'a', 'd', 'b'}));
}

// step() may pause between two entries of the same tick; entries added
// to that tick while paused still run, in order.
TEST(EventQueue, StepPausesWithinTick)
{
    EventQueue eq;
    std::vector<int> fired;
    eq.scheduleFn(10, [&] { fired.push_back(1); });
    eq.scheduleFn(10, [&] { fired.push_back(2); });
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(fired, (std::vector<int>{1}));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.pendingCount(), 1u);
    eq.scheduleFn(10, [&] { fired.push_back(3); });
    eq.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(eq.step());
}

// A chain that always schedules beyond the near-future window forces a
// window re-base per link; time must stay monotonic and no link lost.
TEST(EventQueue, CrossWindowChain)
{
    EventQueue eq;
    int links = 0;
    std::function<void()> next = [&] {
        if (++links < 50)
            eq.scheduleFn(eq.now() + 20000, next);
    };
    eq.scheduleFn(1, next);
    eq.run();
    EXPECT_EQ(links, 50);
    EXPECT_EQ(eq.now(), 1u + 49u * 20000u);
}

// Callables larger than the node's inline storage take the heap
// fallback; the payload must arrive intact.
TEST(EventQueue, OversizedCallableFallsBackToHeap)
{
    EventQueue eq;
    std::array<std::uint64_t, 32> payload; // 256 B, over the inline cap
    static_assert(!EventQueue::fitsInline<decltype(payload)>);
    std::iota(payload.begin(), payload.end(), 1);
    std::uint64_t got = 0;
    eq.scheduleFn(10, [payload, &got] {
        got = std::accumulate(payload.begin(), payload.end(),
                              std::uint64_t(0));
    });
    eq.run();
    EXPECT_EQ(got, 32u * 33 / 2);
}

// Destroying a queue with un-fired one-shots (in the bucket window, in a
// far-ring chain, in the overflow heap beyond the ring, and in a
// partially drained tick) must destroy their callables exactly once.
TEST(EventQueue, TeardownDestroysPendingOneShots)
{
    auto token = std::make_shared<int>(42);
    {
        EventQueue eq;
        eq.scheduleFn(10, [token] {});
        eq.scheduleFn(10, [token] {});
        eq.scheduleFn(200000, [token] {});     // a far-ring chain
        eq.scheduleFn(50'000'000, [token] {}); // beyond the ring: heap
        ASSERT_TRUE(eq.step()); // leaves one entry of tick 10 in the cache
        EXPECT_EQ(token.use_count(), 4);
    }
    EXPECT_EQ(token.use_count(), 1);
}

// The queue's geometry (eventq.hh): 16384-tick windows, a ring of 1024
// far windows, the overflow heap beyond. The tests below use it only to
// aim ticks at each level; the contract they check does not depend on it.
constexpr Tick kTestWindow = Tick(1) << 14;
constexpr Tick kTestFarSpan = kTestWindow << 10;

// A run(limit) that stops short of the next pending entry, where that
// entry sits in a far window or beyond the ring, must not move the near
// window past now(): a later schedule between now() and that window is
// legal and fires first.
TEST(EventQueue, RunLimitShortOfFarWindow)
{
    for (const Tick far : {5 * kTestWindow + 100, 2000 * kTestWindow + 100}) {
        EventQueue eq;
        std::vector<int> fired;
        eq.scheduleFn(far, [&] { fired.push_back(2); });
        eq.run(far - 50); // inside the entry's window, before the entry
        EXPECT_TRUE(fired.empty());
        EXPECT_EQ(eq.now(), 0u);
        eq.scheduleFn(10, [&] { fired.push_back(1); });
        eq.scheduleFn(far - 50, [&] { fired.push_back(3); });
        eq.run();
        EXPECT_EQ(fired, (std::vector<int>{1, 3, 2}));
        EXPECT_EQ(eq.now(), far);
    }
}

// All three levels against a reference model. Shared "hot" ticks collect
// same-tick ties filed into the heap (while beyond the ring), the far
// ring and the near buckets (after a run stops inside their window), with
// mixed priorities. Time runs over many ring lengths, so the ring index
// wraps. run(limit) and step() interleave with schedules, and every run
// is followed by a schedule between now() and the next pending entry.
// Registered events are cancelled and rescheduled while they sit in far
// chains, and a churn phase of far-only reschedules must keep
// staleCount() within the compaction bound.
TEST(EventQueue, ThreeLevelsMatchReference)
{
    constexpr int kEvents = 32;
    constexpr int kHot = 4;
    struct Ref
    {
        Tick when;
        int pri;
        std::uint64_t seq;
        int id;
    };
    struct Hot
    {
        Tick when;
        bool heap, far, near;
    };

    EventQueue eq;
    std::mt19937_64 rng(4242);
    std::vector<Ref> model; // pending entries
    std::vector<int> fired;
    std::vector<int> expected;
    std::uint64_t seq = 0;
    int next_id = kEvents; // one-shot ids follow the registered events'
    const int prios[] = {Event::DramPriority, Event::DefaultPriority,
                         Event::StatsPriority};
    std::vector<std::unique_ptr<Event>> events;
    for (int i = 0; i < kEvents; ++i) {
        events.push_back(std::make_unique<Event>(
            "far", [&fired, i] { fired.push_back(i); }, prios[i % 3]));
    }

    // A hot tick starts beyond the ring, in the second half of a window.
    const auto freshHot = [&] {
        return Hot{(eq.now() + kTestFarSpan + rng() % kTestFarSpan) |
                       (kTestWindow / 2),
                   false, false, false};
    };
    std::vector<Hot> hot;
    for (int h = 0; h < kHot; ++h)
        hot.push_back(freshHot());
    int hot_all_levels = 0;

    const auto oneShot = [&](Tick when) {
        const int id = next_id++;
        const int pri = prios[rng() % 3];
        eq.scheduleFn(when, [&fired, id] { fired.push_back(id); }, pri);
        model.push_back({when, pri, seq++, id});
    };
    const auto cancel = [&](int i) {
        std::erase_if(model, [i](const Ref &r) { return r.id == i; });
        eq.deschedule(*events[i]);
    };
    const auto reschedule = [&](int i, Tick when) {
        std::erase_if(model, [i](const Ref &r) { return r.id == i; });
        model.push_back({when, events[i]->priority(), seq++, i});
        eq.schedule(*events[i], when);
    };
    // Schedule at a hot tick, noting which level the entry lands in.
    const auto hotShot = [&](Hot &h) {
        const Tick ahead = h.when - eq.now();
        if (ahead >= kTestFarSpan)
            h.heap = true;
        else if (ahead >= kTestWindow && ahead < kTestFarSpan - kTestWindow)
            h.far = true;
        oneShot(h.when);
    };
    // Move what the model says the queue executes next (up to @p count
    // entries due by @p limit) into expected; returns the last tick.
    const auto pop = [&](Tick limit, std::size_t count) {
        std::sort(model.begin(), model.end(),
                  [](const Ref &a, const Ref &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.pri != b.pri)
                          return a.pri < b.pri;
                      return a.seq < b.seq;
                  });
        Tick last = eq.now();
        std::size_t n = 0;
        for (; n < model.size() && n < count && model[n].when <= limit; ++n) {
            expected.push_back(model[n].id);
            last = model[n].when;
        }
        model.erase(model.begin(), model.begin() + static_cast<long>(n));
        return last;
    };
    const auto runTo = [&](Tick limit) {
        const Tick last = pop(limit, model.size());
        EXPECT_EQ(eq.run(limit), last);
    };
    // A far-ring (or, rarely, heap) tick ahead of now().
    const auto farTick = [&] {
        return eq.now() + kTestWindow +
               rng() % (kTestFarSpan - 2 * kTestWindow);
    };

    for (int op = 0; op < 8000; ++op) {
        for (Hot &h : hot) {
            if (h.when < eq.now()) {
                hot_all_levels += h.heap && h.far && h.near;
                h = freshHot();
            }
        }
        const unsigned r = rng() % 100;
        if (r < 14) {
            oneShot(eq.now() + rng() % kTestWindow);
        } else if (r < 26) {
            oneShot(farTick());
        } else if (r < 30) {
            oneShot(eq.now() + kTestFarSpan + rng() % (2 * kTestFarSpan));
        } else if (r < 40) {
            hotShot(hot[rng() % kHot]);
        } else if (r < 54) {
            reschedule(static_cast<int>(rng() % kEvents), farTick());
        } else if (r < 58) {
            reschedule(static_cast<int>(rng() % kEvents),
                       eq.now() + rng() % kTestWindow);
        } else if (r < 64) {
            cancel(static_cast<int>(rng() % kEvents));
        } else if (r < 70) {
            const bool any = !model.empty();
            const Tick last = pop(MaxTick, 1);
            ASSERT_EQ(eq.step(), any);
            EXPECT_EQ(eq.now(), last);
        } else if (r < 78) {
            // Run into a hot tick's window through a marker entry due
            // just before it, then tie onto the hot tick from the near
            // buckets.
            Hot &h = hot[rng() % kHot];
            const Tick back = 1 + rng() % (kTestWindow / 4);
            const Tick marker = std::max(eq.now(), h.when - back);
            oneShot(marker);
            runTo(marker);
            if ((eq.now() >> 14) == (h.when >> 14))
                h.near = true;
            hotShot(h);
            hotShot(h);
        } else {
            // Stop inside the span of later far windows, then schedule
            // between now() and the next pending entry.
            const Tick limit = eq.now() + rng() % (kTestFarSpan / 4);
            runTo(limit);
            oneShot(eq.now() + rng() % (limit - eq.now() + 1));
        }
        ASSERT_EQ(fired, expected) << "op " << op;
        ASSERT_EQ(eq.pendingCount(), model.size()) << "op " << op;
        ASSERT_LE(eq.staleCount(),
                  std::max<std::size_t>(63, eq.pendingCount()))
            << "op " << op;
        if (op % 1000 == 999) {
            // Churn: drain, then only far-chain reschedules, so stale
            // entries pile up in the far ring and nowhere else.
            runTo(MaxTick);
            for (int c = 0; c < 600; ++c) {
                reschedule(static_cast<int>(rng() % kEvents), farTick());
                ASSERT_LE(eq.staleCount(),
                          std::max<std::size_t>(63, eq.pendingCount()))
                    << "churn " << c;
            }
            ASSERT_EQ(eq.pendingCount(), model.size());
        }
    }
    runTo(MaxTick);
    EXPECT_EQ(fired, expected);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.staleCount(), 0u);
    // The drive covered what it claims: many ring wrap-arounds, and hot
    // ticks with ties from all three levels.
    EXPECT_GT(eq.now(), 8 * kTestFarSpan);
    EXPECT_GT(hot_all_levels, 0);
}

TEST(ClockDomain, Conversions)
{
    const ClockDomain clk = ClockDomain::fromMhz(200.0);
    EXPECT_EQ(clk.period(), 5000u);
    EXPECT_EQ(clk.cyclesToTicks(3), 15000u);
    EXPECT_EQ(clk.ticksToCycles(15000), 3u);
    EXPECT_EQ(clk.ticksToCycles(15001), 3u);
    EXPECT_EQ(clk.nextEdge(0), 0u);
    EXPECT_EQ(clk.nextEdge(1), 5000u);
    EXPECT_EQ(clk.nextEdge(5000), 5000u);
    EXPECT_EQ(clk.nextEdge(5001), 10000u);
}

TEST(Clocked, EdgeAlignedScheduling)
{
    EventQueue eq;
    struct Widget : Clocked
    {
        Widget(EventQueue &eq)
            : Clocked("widget", eq, ClockDomain::fromMhz(100.0))
        {}
    } widget(eq);

    // Advance time off-edge with a dummy event.
    eq.scheduleFn(123, [] {});
    eq.run();
    EXPECT_EQ(eq.now(), 123u);
    EXPECT_EQ(widget.clockEdge(0), 10000u);
    EXPECT_EQ(widget.clockEdge(2), 30000u);
    EXPECT_EQ(widget.curCycle(), 0u);

    int fired = 0;
    Event tick("tick", [&] { ++fired; });
    widget.scheduleCycles(tick, 1);
    eq.run();
    EXPECT_EQ(eq.now(), 20000u);
    EXPECT_EQ(fired, 1);
}
