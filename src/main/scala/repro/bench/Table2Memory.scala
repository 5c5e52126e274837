package repro.bench

import repro.LocalGen
import repro.core.online.OnlineTable
import repro.redis.RedisMemModel
import repro.storage.{FieldType, MemoryModel, RowCodec}

/** Table 2 reproduction: memory consumed by OpenMLDB vs Trino+Redis for
  * the TalkingData workload, keyed by `ip`.
  *
  * Layouts measured:
  *  - OpenMLDB: the §7.1 compact row codec (exact encoded bytes measured
  *    on generated rows) + the §8.1 storage model (156 B/unique key index
  *    overhead + C=74 B/row skiplist node for an "absolute" table).
  *  - Trino+Redis: one sorted set per ip holding JSON-encoded rows (the
  *    Trino Redis connector's encoding), costed by the jemalloc-accurate
  *    Redis model.
  *
  * [[live]] loads the click sample into an [[OnlineTable]] keyed by `ip`
  * and reads the row bytes and the heap the store holds, next to the
  * model's figures for the same rows and keys.
  *
  * Unique-key counts follow the TalkingData regime: ips drawn zipf(1.05)
  * from a 278k universe; for n >= 10M rows the expected-unique closed form
  * is used instead of materialising (the dataset itself is 184.9M rows).
  */
object Table2Memory {
  import FieldType._

  final case class MemRow(tuples: Long, redisBytes: Long, openmldbBytes: Long) {
    def reductionPct: Double = 100.0 * (1.0 - openmldbBytes.toDouble / redisBytes)
  }

  /** Paper Table 2 (bytes and reduction) for diffing in EXPERIMENTS.md. */
  val paper: Seq[(Long, Long, Long, Double)] = Seq(
    (10000L, 9272328L, 2339699L, 74.77),
    (100000L, 48501288L, 15624290L, 67.79),
    (1000000L, 215323024L, 105722441L, 50.90),
    (10000000L, 1897343984L, 1008276458L, 46.86),
    (184903890L, 34071049864L, 18513271540L, 45.66),
  )

  val clickSchema: IndexedSeq[FieldType] =
    IndexedSeq(StringT, IntT, IntT, IntT, IntT, TimestampT, BoolT)

  private def values(c: LocalGen.Click): IndexedSeq[Any] =
    IndexedSeq(c.ip, c.app, c.device, c.os, c.channel, c.clickTime, c.isAttributed)

  private def json(c: LocalGen.Click): String =
    s"""{"ip":"${c.ip}","app":${c.app},"device":${c.device},"os":${c.os},""" +
      s""""channel":${c.channel},"click_time":${c.clickTime},"is_attributed":${c.isAttributed}}"""

  def run(sampleSize: Int = 100000, nIps: Int = 278000, alpha: Double = 1.05): Seq[MemRow] = {
    val codec = new RowCodec(clickSchema)
    val sample = LocalGen.clicks(sampleSize, nIps, alpha)
    val avgRowBytes = sample.map(c => codec.sizeOf(values(c))).sum / sampleSize
    val avgJsonLen = sample.map(json(_).length).sum / sampleSize
    val avgKeyLen = sample.map(_.ip.length).sum / sampleSize

    val zipf = new LocalGen.Zipf(nIps, alpha, seed = 7)
    paper.map { case (n, _, _, _) =>
      val unique = math.min(n, zipf.expectedUnique(n).round)
      val redis = RedisMemModel.totalBytes(n, unique, avgKeyLen, avgJsonLen)
      val omldb = MemoryModel.tableBytes(MemoryModel.TableSpec(
        MemoryModel.Absolute, nRows = n, avgRowLen = avgRowBytes,
        indexes = Seq(MemoryModel.IndexSpec(unique, avgKeyLen))))
      MemRow(n, redis, omldb)
    }
  }

  /** A live store beside the model: `encodedBytes` is the row bytes the
    * [[OnlineTable]] holds, `retainedBytes` the heap the whole table
    * retains (rows, time lists, key index), `modelRowBytes` the §7.1 size
    * of the same rows by `RowCodec.sizeOf` over [[clickSchema]], and
    * `modelTableBytes` the §8.1 table model (rows plus key index and
    * skiplist nodes) for them.
    */
  final case class LiveRow(tuples: Long, keys: Long, encodedBytes: Long, retainedBytes: Long,
                           modelRowBytes: Long, modelTableBytes: Long)

  /** Loads the click sample into an [[OnlineTable]] keyed by `ip`. The
    * retained heap is the settled used heap after the load less the one
    * before it; one throw-away load runs first, so the classes and code it
    * links are not counted. Key strings are the sample's own, so retained
    * bytes leave out the key bytes the model adds per key.
    */
  def live(sampleSize: Int = 100000, nIps: Int = 278000, alpha: Double = 1.05): LiveRow = {
    val codec = new RowCodec(clickSchema)
    val sample = LocalGen.clicks(sampleSize, nIps, alpha)
    def load(): OnlineTable = {
      val table = new OnlineTable("ip", "click_time")
      sample.foreach { c =>
        table.put(Map("ip" -> c.ip, "app" -> c.app, "device" -> c.device, "os" -> c.os, "channel" -> c.channel,
          "click_time" -> c.clickTime, "is_attributed" -> c.isAttributed))
      }
      table
    }
    load()
    val heap0 = settledHeap()
    val table = load()
    val retained = settledHeap() - heap0
    val modelRowBytes = sample.map(c => codec.sizeOf(values(c)).toLong).sum
    val model = MemoryModel.tableBytes(MemoryModel.TableSpec(
      MemoryModel.Absolute, nRows = sampleSize, avgRowLen = (modelRowBytes / sampleSize).toInt,
      indexes = Seq(MemoryModel.IndexSpec(table.keys, sample.map(_.ip.length).sum / sampleSize))))
    LiveRow(table.rows, table.keys, table.encodedBytes, retained, modelRowBytes, model)
  }

  /** Used heap once a full collection frees under 64 KB more than the one
    * before (at most ten collections).
    */
  private def settledHeap(): Long = {
    val mem = java.lang.management.ManagementFactory.getMemoryMXBean
    var used = Long.MaxValue
    var last = 0L
    var n = 0
    while (n < 10 && (n < 2 || last - used >= (1 << 16))) {
      last = used
      System.gc()
      used = mem.getHeapMemoryUsage.getUsed
      n += 1
    }
    used
  }

  def renderLive(r: LiveRow): String = {
    val overhead = r.retainedBytes - r.encodedBytes
    f"Live OnlineTable, ${r.tuples}%d clicks over ${r.keys}%d ips: ${r.encodedBytes}%d encoded row bytes " +
      f"(${r.encodedBytes.toDouble / r.tuples}%.2f B/row); RowCodec model ${r.modelRowBytes}%d B; " +
      f"table model (8.1) ${r.modelTableBytes}%d B\n" +
      f"  retained heap ${r.retainedBytes}%d B (${r.retainedBytes.toDouble / r.keys}%.1f B/key, " +
      f"${r.retainedBytes.toDouble / r.tuples}%.1f B/row); beyond the row bytes ${overhead}%d B " +
      f"(${overhead.toDouble / r.keys}%.1f B/key, ${overhead.toDouble / r.tuples}%.1f B/row); " +
      f"model overhead ${MemoryModel.PerKeyOverhead}%d B/key + ${MemoryModel.Absolute.C}%d B/row = " +
      f"${MemoryModel.PerKeyOverhead * r.keys + MemoryModel.Absolute.C * r.tuples}%d B\n"
  }

  def render(rows: Seq[MemRow]): String = {
    val sb = new StringBuilder
    sb.append("Table 2: Memory resource saved by OpenMLDB (bytes)\n")
    sb.append(f"${"#-Tuples"}%12s ${"RedisMem"}%16s ${"OpenMLDB Mem"}%16s ${"Reduction"}%10s ${"(paper)"}%10s\n")
    rows.zip(paper).foreach { case (r, (_, _, _, paperRed)) =>
      sb.append(f"${r.tuples}%12d ${r.redisBytes}%16d ${r.openmldbBytes}%16d ${r.reductionPct}%9.2f%% ${paperRed}%9.2f%%\n")
    }
    sb.toString
  }
}
