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
    * needed again and is dropped for good. Not thread-safe: in a run, the
    * key's gate ([[KeyRun]]'s monitor) orders every access.
    */
  final class KeyState {
    private var tss = new Array[Long](4)
    private var vals = new Array[Double](4)
    private var head = 0
    private var n = 0
    private var sumWindow = 0.0

    /** Entries currently retained. */
    private[online] def size: Int = n

    private def at(i: Int): Int = (head + i) & (tss.length - 1)

    private def append(ts: Long, v: Double): Unit = {
      if (n == tss.length) {
        // full ring: head..end, then 0..head-1, unrolled into a ring twice the size
        val t2 = new Array[Long](n * 2)
        val v2 = new Array[Double](n * 2)
        val tail = n - head
        System.arraycopy(tss, head, t2, 0, tail); System.arraycopy(tss, 0, t2, tail, head)
        System.arraycopy(vals, head, v2, 0, tail); System.arraycopy(vals, 0, v2, tail, head)
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
    def addAndQuery(ts: Long, v: Double, windowMs: Long): Double = {
      append(ts, v)
      sumWindow += v - evictBefore(ts - windowMs)
      sumWindow
    }

    /** The static baseline: same buffer and eviction, but no retained sum,
      * so every tuple pays an O(w) scan of its frame.
      */
    def rescan(ts: Long, v: Double, windowMs: Long): Double = {
      append(ts, v)
      evictBefore(ts - windowMs)
      var s = 0.0
      var i = 0
      while (i < n) { s += vals(at(i)); i += 1 }
      s
    }
  }

  /** One key's part of a run, built by the pre-pass merge: its window
    * state, its sequence gate (the seq of the tuple to run next) and the
    * tuples that reached a worker before their turn, by seq. The gate, the
    * parked tuples and the state are touched only under this record's
    * monitor.
    */
  private final class KeyRun(val key: String, val id: Int) {
    val state = new KeyState
    var tuples = 0              // merge: the key's tuples in earlier chunks
    var lastTs = Long.MinValue  // merge: ts of the key's last tuple in earlier chunks
    private var next = 0
    private val parked = new java.util.HashMap[Integer, Integer]()

    /** Runs tuple `idx`, the key's `seq`-th, through `step` if the gate is
      * at `seq`, then every parked successor that this unblocks, in seq
      * order; otherwise parks it for the worker that runs its predecessor.
      */
    def runOrPark(idx: Int, seq: Int, step: Int => Unit): Unit = synchronized {
      if (seq != next) parked.put(seq, idx)
      else {
        var i = idx
        while (i >= 0) {
          step(i)
          next += 1
          val p = if (parked.isEmpty) null else parked.remove(next)
          i = if (p == null) -1 else p.intValue()
        }
      }
    }

    def parkedCount: Int = synchronized(parked.size)
  }

  /** A key's tuples within one pre-pass chunk. */
  private final class ChunkKey(val key: String, val local: Int, val first: Int) {
    var tuples = 0              // seq of the key's next tuple in the chunk
    var lastTs = Long.MinValue  // ts of the key's last tuple in the chunk
    var id = 0                  // merge: the key's global id
    var seqBase = 0             // merge: the key's tuples in earlier chunks
  }

  /** The pre-pass over the tuple indices `from until until`: keys in local
    * first-appearance order, and the index of the chunk's first tuple
    * whose ts is below its key's previous ts in the chunk (-1 if none),
    * with that previous ts.
    */
  private final class Chunk(val from: Int, val until: Int) {
    val keys = ArrayBuffer.empty[ChunkKey]
    var bad = -1
    var badPrev = 0L
  }

  /** Tuple indices per hand-off from the feeding thread to a worker. */
  private[online] final val BlockSize = 512

  abstract class ThreadedEngine(nWorkers: Int) {
    require(nWorkers >= 1, s"nWorkers must be at least 1, got $nWorkers")

    /** A router for one run: maps a key id (an index into `keys`) to a
      * worker. Only the thread that calls `run` uses it, once per tuple in
      * submission order.
      */
    protected def router(keys: IndexedSeq[String]): Int => Int

    /** Static hash routing of `key`. */
    protected final def hashed(key: String): Int = math.floorMod(key.hashCode, nWorkers)

    /** Answers the tuple at `ts` with value `v` from its key's state in the
      * current run.
      */
    protected def handle(ts: Long, v: Double, st: KeyState): Double

    /** Run the whole stream; returns per-tuple results in input order.
      *
      * The pre-pass is split into `nWorkers + 1` contiguous chunks of the
      * stream, one on the calling thread and one on each worker before it
      * takes any tuple. A chunk gives each tuple a chunk-local key id and
      * seq, copies its `ts` and `value` into flat columns, and notes its
      * first ts-order violation. The calling thread then merges the chunks
      * in order: each distinct key gets one [[KeyRun]], in first-appearance
      * order over the whole stream, and each chunk key the seq base of the
      * key's tuples in earlier chunks.
      *
      * The calling thread routes every tuple, in submission order, after
      * rewriting its key id and seq to the global ones, and appends its
      * index to that worker's pending block; a full block of [[BlockSize]]
      * indices goes on the worker's queue in one hand-off, and at the end
      * each partial block follows, then an empty block as the end marker.
      * Past its own chunk, a worker reads only the columns, never
      * `tuples`.
      *
      * A tuple runs under its key record's monitor, the one gate per
      * tuple: if the gate is at the tuple's seq the worker runs it and then
      * every successor parked behind it; otherwise it parks the tuple on
      * the record (its predecessor is still in another worker's backlog
      * after a key moved). Ordering stays exact with zero spinning — the
      * §5.2 contract without busy requeueing. The queues are unbounded, so
      * a worker that died never blocks the feed.
      *
      * Key records and the router belong to one call, so an engine can
      * run any number of streams, and every worker has ended when `run`
      * returns or throws.
      *
      * @throws IllegalArgumentException if a key's `ts` goes backwards in
      *         `tuples`, for the first such tuple in submission order;
      *         rejected before any tuple is handled
      * @throws Throwable the first error a worker hit in the pre-pass or in
      *         `handle`, after the other workers drained their queues
      */
    def run(tuples: IndexedSeq[StreamTuple]): Array[Double] = {
      val n = tuples.length
      val results = new Array[Double](n)
      // per tuple: key id and per-key seq (chunk-local until the feed
      // rewrites them), and its ts and value
      val keyOf = new Array[Int](n)
      val seqOf = new Array[Int](n)
      val tsCol = new Array[Long](n)
      val valCol = new Array[Double](n)
      // plain arrays and loops: a ClassTag-built array of arrays would
      // leave an entry in Scala's ClassTag cache behind every run
      val chunks = new Array[Chunk](nWorkers + 1)
      var c = 0
      while (c < chunks.length) {
        chunks(c) = new Chunk((n.toLong * c / chunks.length).toInt, (n.toLong * (c + 1) / chunks.length).toInt)
        c += 1
      }
      // submission order must be ts order per key, which is what lets
      // KeyState evict for good
      def prepass(ch: Chunk): Unit = {
        val local = new java.util.HashMap[String, ChunkKey]()
        var i = ch.from
        while (i < ch.until) {
          val t = tuples(i)
          var k = local.get(t.key)
          if (k == null) { k = new ChunkKey(t.key, ch.keys.length, i); local.put(t.key, k); ch.keys += k }
          if (t.ts < k.lastTs && ch.bad < 0) { ch.bad = i; ch.badPrev = k.lastTs }
          keyOf(i) = k.local
          seqOf(i) = k.tuples
          k.tuples += 1
          k.lastTs = t.ts
          tsCol(i) = t.ts
          valCol(i) = t.value
          i += 1
        }
      }
      var runs: Array[KeyRun] = null // set by the merge, before any block is handed over
      val chunked = new CountDownLatch(nWorkers)
      val queues = new Array[LinkedBlockingQueue[Array[Int]]](nWorkers)
      val workers = new Array[Thread](nWorkers)
      val failure = new AtomicReference[Throwable]()
      var w = 0
      try {
        while (w < nWorkers) {
          val queue = new LinkedBlockingQueue[Array[Int]]()
          val ch = chunks(w + 1)
          queues(w) = queue
          workers(w) = new Thread(() => {
            try {
              try prepass(ch) finally chunked.countDown()
              var block = queue.take()
              val rs = runs
              val step: Int => Unit = i => results(i) = handle(tsCol(i), valCol(i), rs(keyOf(i)).state)
              while (block.length > 0) {
                var j = 0
                while (j < block.length) {
                  val idx = block(j)
                  rs(keyOf(idx)).runOrPark(idx, seqOf(idx), step)
                  j += 1
                }
                block = queue.take()
              }
            } catch {
              // this worker stops; the others drain their queues (their
              // tuples never wait on it) and run rethrows once all are done
              case e: Throwable => failure.compareAndSet(null, e)
            }
          }, s"union-worker-$w")
          workers(w).setDaemon(true)
          workers(w).start()
          w += 1
        }
        prepass(chunks(0))
        chunked.await()
        val err = failure.get()
        if (err != null) throw err
        // merge: global key records in first-appearance order, each chunk
        // key's global id and seq base, and the ts check across chunks
        val byKey = new java.util.HashMap[String, KeyRun]()
        val runsBuf = ArrayBuffer.empty[KeyRun]
        c = 0
        while (c < chunks.length) {
          val ch = chunks(c)
          var bad = ch.bad
          var badPrev = ch.badPrev
          ch.keys.foreach { k =>
            var r = byKey.get(k.key)
            if (r == null) { r = new KeyRun(k.key, runsBuf.length); byKey.put(k.key, r); runsBuf += r }
            if (tsCol(k.first) < r.lastTs && (bad < 0 || k.first < bad)) { bad = k.first; badPrev = r.lastTs }
            k.id = r.id
            k.seqBase = r.tuples
            r.tuples += k.tuples
            r.lastTs = k.lastTs
          }
          require(bad < 0,
            s"key ${tuples(bad).key}: ts ${tsCol(bad)} comes after ts $badPrev; run needs each key's tuples in ts order")
          c += 1
        }
        runs = runsBuf.toArray
        val route = router(runs.map(_.key).toIndexedSeq)

        val pending = new Array[Array[Int]](nWorkers)
        val filled = new Array[Int](nWorkers)
        w = 0
        while (w < nWorkers) { pending(w) = new Array[Int](BlockSize); w += 1 }
        c = 0
        while (c < chunks.length) {
          val ch = chunks(c)
          var i = ch.from
          while (i < ch.until) {
            val k = ch.keys(keyOf(i))
            keyOf(i) = k.id
            seqOf(i) += k.seqBase
            w = route(k.id)
            pending(w)(filled(w)) = i
            filled(w) += 1
            if (filled(w) == BlockSize) {
              queues(w).put(pending(w))
              pending(w) = new Array[Int](BlockSize)
              filled(w) = 0
            }
            i += 1
          }
          c += 1
        }
        w = 0
        while (w < nWorkers) {
          if (filled(w) > 0) queues(w).put(java.util.Arrays.copyOf(pending(w), filled(w)))
          w += 1
        }
      } finally {
        // the end markers also stop the workers when the run failed early
        w = 0
        while (w < nWorkers && workers(w) != null) { queues(w).put(new Array[Int](0)); w += 1 }
        w = 0
        while (w < nWorkers && workers(w) != null) { workers(w).join(); w += 1 }
      }
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
    protected def handle(ts: Long, v: Double, st: KeyState): Double = st.rescan(ts, v, windowMs)
  }

  /** The paper's engine: dynamic key->worker routing + subtract-and-evict. */
  final class SelfAdjustingUnion(nWorkers: Int, windowMs: Long,
                                 rebalanceEvery: Int = 20000) extends ThreadedEngine(nWorkers) {
    require(rebalanceEvery >= 1, s"rebalanceEvery must be at least 1, got $rebalanceEvery")

    /** Rebalances that moved keys, over every run so far. */
    var rebalances: Int = 0

    protected def router(keys: IndexedSeq[String]): Int => Int = new Balancer(keys)

    protected def handle(ts: Long, v: Double, st: KeyState): Double = st.addAndQuery(ts, v, windowMs)

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
