package repro.core.online

import java.util.concurrent.{CountDownLatch, LinkedBlockingQueue}
import java.util.concurrent.atomic.AtomicReference
import scala.collection.mutable.ArrayBuffer

/** Multi-table window-union streaming executors (§5.2 and §9.3.2).
  *
  * The workload: an interleaved stream of tuples from several tables,
  * sharing a key space; every tuple must be answered with the running
  * window aggregate (here: sum over the last `windowMs`) across ALL
  * tables for its key — the online WINDOW UNION.
  *
  * [[StaticUnion]] is the Flink-shaped baseline the paper describes:
  * static key-hash routing to worker threads and no retained incremental
  * state — each tuple re-scans its key's buffered window (the paper's
  * "has to re-sort the data to identify the oldest entries", O(w) per
  * tuple) and suffers hot-key imbalance under zipf keys.
  *
  * [[SelfAdjustingUnion]] is the paper's engine: (1) on-the-fly load
  * balancing — a router map periodically reassigns the hottest keys from
  * the most loaded worker to the least loaded; (2) incremental
  * subtract-and-evict — per-key deque with running sum, O(1) amortized
  * per tuple.
  */
object WindowUnionStream {

  /** One stream tuple; `table` only matters for provenance (the union
    * aggregates across tables by construction).
    */
  final case class StreamTuple(table: Int, key: String, ts: Long, value: Double)

  /** Golden single-threaded reference (used by correctness tests). */
  def sequentialReference(tuples: Seq[StreamTuple], windowMs: Long): Array[Double] = {
    val buf = scala.collection.mutable.HashMap.empty[String, ArrayBuffer[(Long, Double)]]
    tuples.zipWithIndex.map { case (t, _) =>
      val b = buf.getOrElseUpdate(t.key, ArrayBuffer.empty)
      b += ((t.ts, t.value))
      b.filter { case (ts, _) => ts >= t.ts - windowMs && ts <= t.ts }.map(_._2).sum
    }.toArray
  }

  /** Per-key sliding-window state: the entries inside the current frame,
    * ts-ascending in a ring buffer, plus their running sum. `run` hands
    * each key's tuples to `handle` one at a time and in ts order, across
    * key handoffs too, so an entry that leaves the frame can never be
    * needed again and is dropped for good.
    */
  final class KeyState {
    private var tss = new Array[Long](4)
    private var vals = new Array[Double](4)
    private var head = 0
    private var n = 0
    private var sumWindow = 0.0

    /** Entries currently retained. */
    private[online] def size: Int = synchronized(n)

    private def at(i: Int): Int = (head + i) & (tss.length - 1)

    private def append(ts: Long, v: Double): Unit = {
      if (n == tss.length) {
        val (t2, v2) = (new Array[Long](n * 2), new Array[Double](n * 2))
        (0 until n).foreach { i => t2(i) = tss(at(i)); v2(i) = vals(at(i)) }
        tss = t2; vals = v2; head = 0
      }
      tss(at(n)) = ts; vals(at(n)) = v; n += 1
    }

    /** Drops the entries older than `cutoff`; returns their sum. */
    private def evictBefore(cutoff: Long): Double = {
      var dropped = 0.0
      while (n > 0 && tss(head) < cutoff) {
        dropped += vals(head); head = at(1); n -= 1
      }
      dropped
    }

    /** Subtract-and-evict: O(1) amortized per tuple. */
    def addAndQuery(ts: Long, v: Double, windowMs: Long): Double = synchronized {
      append(ts, v)
      sumWindow += v - evictBefore(ts - windowMs)
      sumWindow
    }

    /** The static baseline: same buffer and eviction, but no retained sum,
      * so every tuple pays an O(w) scan of its frame.
      */
    def rescan(ts: Long, v: Double, windowMs: Long): Double = synchronized {
      append(ts, v)
      evictBefore(ts - windowMs)
      var s = 0.0
      var i = 0
      while (i < n) { s += vals(at(i)); i += 1 }
      s
    }
  }

  /** One key's part of a run, built by the pre-pass: its window state,
    * its sequence gate (the seq of the tuple to run next) and the tuples
    * that reached a worker before their turn, by seq. Workers touch the
    * gate and the parked tuples only under this record's monitor.
    */
  private final class KeyRun(val key: String, val id: Int) {
    val state = new KeyState
    var tuples = 0              // pre-pass: seq of the key's next tuple
    var lastTs = Long.MinValue  // pre-pass: ts of the key's last tuple
    private var next = 0
    private val parked = new java.util.HashMap[Integer, Integer]()

    /** True if tuple `idx`, the key's `seq`-th, may run now; otherwise
      * parks it for the worker that runs its predecessor.
      */
    def admit(idx: Int, seq: Int): Boolean = synchronized {
      seq == next || { parked.put(seq, idx); false }
    }

    /** Opens the gate to the next seq; returns that tuple's index if it is
      * parked (the caller runs it), else -1.
      */
    def advance(): Int = synchronized {
      next += 1
      val p = if (parked.isEmpty) null else parked.remove(next)
      if (p == null) -1 else p.intValue()
    }

    def parkedCount: Int = synchronized(parked.size)
  }

  /** Tuple indices per hand-off from the feeding thread to a worker. */
  private[online] final val BlockSize = 512

  abstract class ThreadedEngine(nWorkers: Int) {

    /** A router for one run: maps a key id (an index into `keys`) to a
      * worker. Only the thread that calls `run` uses it, once per tuple in
      * submission order.
      */
    protected def router(keys: IndexedSeq[String]): Int => Int

    /** Static hash routing of `key`. */
    protected final def hashed(key: String): Int = math.floorMod(key.hashCode, nWorkers)

    /** Answers `t` from its key's state in the current run. */
    protected def handle(t: StreamTuple, st: KeyState): Double

    /** Run the whole stream; returns per-tuple results in input order.
      *
      * A pre-pass gives each distinct key one [[KeyRun]] and each tuple its
      * key id and per-key sequence number. A worker runs a tuple only when
      * its key's gate is at the tuple's seq; otherwise it parks the tuple
      * on the key's record (its predecessor is still in another worker's
      * backlog after a key moved). Whichever worker runs the predecessor
      * then runs the parked successor, so ordering stays exact with zero
      * spinning — the §5.2 contract without busy requeueing.
      *
      * The calling thread routes every tuple, in submission order, and
      * appends its index to that worker's pending block; a full block of
      * [[BlockSize]] indices goes on the worker's queue in one hand-off,
      * and at the end each partial block follows, then an empty block as
      * the end marker. A tuple whose key moved while its predecessors sat
      * in the old worker's unflushed block parks like any other. The
      * queues are unbounded, so a worker that died never blocks the feed.
      *
      * Key records and the router belong to one call, so an engine can
      * run any number of streams.
      *
      * @throws IllegalArgumentException if a key's `ts` goes backwards in
      *         `tuples`; checked before any worker starts
      * @throws Throwable the first error a worker hit in `handle`, after
      *         the other workers drained their queues
      */
    def run(tuples: IndexedSeq[StreamTuple]): Array[Double] = {
      val results = new Array[Double](tuples.length)
      // pre-pass: each key's record, each tuple's key id and per-key seq;
      // submission order must be ts order per key, which is what lets
      // KeyState evict for good
      val keyOf = new Array[Int](tuples.length)
      val seqOf = new Array[Int](tuples.length)
      val byKey = new java.util.HashMap[String, KeyRun]()
      val runsBuf = ArrayBuffer.empty[KeyRun]
      tuples.indices.foreach { i =>
        val t = tuples(i)
        var r = byKey.get(t.key)
        if (r == null) { r = new KeyRun(t.key, runsBuf.length); byKey.put(t.key, r); runsBuf += r }
        require(t.ts >= r.lastTs,
          s"key ${t.key}: ts ${t.ts} comes after ts ${r.lastTs}; run needs each key's tuples in ts order")
        keyOf(i) = r.id
        seqOf(i) = r.tuples
        r.tuples += 1
        r.lastTs = t.ts
      }
      val runs = runsBuf.toArray
      val route = router(runs.map(_.key).toIndexedSeq)
      val queues = Array.fill(nWorkers)(new LinkedBlockingQueue[Array[Int]]())
      val done = new CountDownLatch(nWorkers)
      val failure = new AtomicReference[Throwable]()

      val workers = (0 until nWorkers).map { w =>
        val th = new Thread(() => {
          try {
            var block = queues(w).take()
            while (block.length > 0) {
              var j = 0
              while (j < block.length) {
                val idx = block(j)
                val r = runs(keyOf(idx))
                // run the tuple and every parked successor it unblocks
                var next = if (r.admit(idx, seqOf(idx))) idx else -1
                while (next >= 0) {
                  results(next) = handle(tuples(next), r.state)
                  next = r.advance()
                }
                j += 1
              }
              block = queues(w).take()
            }
          } catch {
            // this worker stops; the others drain their queues (their
            // tuples never wait on it) and run rethrows once all are done
            case e: Throwable => failure.compareAndSet(null, e)
          } finally done.countDown()
        }, s"union-worker-$w")
        th.setDaemon(true); th.start(); th
      }
      // plain arrays and loops: a ClassTag-built array of arrays would
      // leave an entry in Scala's ClassTag cache behind every run
      val pending = new Array[Array[Int]](nWorkers)
      val filled = new Array[Int](nWorkers)
      var w = 0
      while (w < nWorkers) { pending(w) = new Array[Int](BlockSize); w += 1 }
      var i = 0
      while (i < tuples.length) {
        w = route(keyOf(i))
        pending(w)(filled(w)) = i
        filled(w) += 1
        if (filled(w) == BlockSize) {
          queues(w).put(pending(w))
          pending(w) = new Array[Int](BlockSize)
          filled(w) = 0
        }
        i += 1
      }
      w = 0
      while (w < nWorkers) {
        if (filled(w) > 0) queues(w).put(java.util.Arrays.copyOf(pending(w), filled(w)))
        queues(w).put(new Array[Int](0))
        w += 1
      }
      done.await()
      workers.foreach(_.join())
      val err = failure.get()
      if (err != null) throw err
      // a successor runs inside its predecessor's chain, so once every
      // worker has drained its queue nothing can be left parked
      val left = runs.map(_.parkedCount).sum
      require(left == 0, s"unprocessed parked tuples: $left")
      results
    }
  }

  /** Flink-style baseline: static hash routing + O(w) rescan per tuple. */
  final class StaticUnion(nWorkers: Int, windowMs: Long) extends ThreadedEngine(nWorkers) {
    protected def router(keys: IndexedSeq[String]): Int => Int = k => hashed(keys(k))
    protected def handle(t: StreamTuple, st: KeyState): Double = st.rescan(t.ts, t.value, windowMs)
  }

  /** The paper's engine: dynamic key->worker routing + subtract-and-evict. */
  final class SelfAdjustingUnion(nWorkers: Int, windowMs: Long,
                                 rebalanceEvery: Int = 20000) extends ThreadedEngine(nWorkers) {
    /** Rebalances that moved keys, over every run so far. */
    var rebalances: Int = 0

    protected def router(keys: IndexedSeq[String]): Int => Int = new Balancer(keys)

    protected def handle(t: StreamTuple, st: KeyState): Double = st.addAndQuery(t.ts, t.value, windowMs)

    /** One run's routing table and per-key load, counted as tuples are
      * submitted; every `rebalanceEvery` submitted tuples it moves the
      * hottest keys off the most loaded worker onto the least loaded one
      * (runtime-metric-driven, as in §5.2 step 1).
      */
    private final class Balancer(keys: IndexedSeq[String]) extends (Int => Int) {
      private val worker = keys.map(hashed).toArray
      private val load = new Array[Long](keys.length)
      private var submitted = 0

      def apply(k: Int): Int = {
        load(k) += 1
        submitted += 1
        if (submitted == rebalanceEvery) { submitted = 0; rebalance() }
        worker(k)
      }

      private def rebalance(): Unit = {
        val loadPerWorker = new Array[Long](nWorkers)
        load.indices.foreach(k => loadPerWorker(worker(k)) += load(k))
        val hot  = loadPerWorker.indices.maxBy(loadPerWorker)
        val cold = loadPerWorker.indices.minBy(loadPerWorker)
        if (hot != cold && loadPerWorker(hot) > 2 * math.max(1L, loadPerWorker(cold))) {
          // move the hot worker's heaviest keys that fit in the gap: a key
          // at least as heavy as the gap would only make the cold worker
          // the hot one, and since loads are cumulative it would flip back
          // at the next rebalance, parking tuples at every flip
          var gap = loadPerWorker(hot) - loadPerWorker(cold)
          var moved = false
          load.indices.filter(worker(_) == hot).sortBy(k => -load(k)).foreach { k =>
            if (load(k) > 0 && load(k) < gap) {
              worker(k) = cold
              gap -= 2 * load(k)
              moved = true
            }
          }
          if (moved) rebalances += 1
        }
      }
    }
  }
}
