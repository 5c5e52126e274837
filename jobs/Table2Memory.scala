package repro.jobs

/** spark-submit entrypoint for paper Table 2 (memory vs Trino+Redis).
  * Analytic over generated data, plus the bytes a live online table holds
  * for the click sample — no cluster needed, but shipped as a job for
  * parity with the other tables.
  *
  *   spark-submit --class repro.jobs.Table2Memory repro-jobs.jar [sampleSize]
  */
object Table2Memory {
  def main(args: Array[String]): Unit = {
    val sample = args.headOption.map(_.toInt).getOrElse(100000)
    println(repro.bench.Table2Memory.render(repro.bench.Table2Memory.run(sample)))
    println(repro.bench.Table2Memory.renderLive(repro.bench.Table2Memory.live(sample)))
  }
}
