package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic Spark tables for the offline jobs, benches and tests:
  * TalkingData-lite clicks, the actions/orders stream tables and a skewed
  * key column. Generators are deterministic in their seed so the DuckDB
  * oracle sees identical input.
  */
object SynthData {

  /** Zipf-skewed key column with a uniform value (the Fig 13 skew shape). */
  def zipfKeys(spark: SparkSession, rows: Long, nKeys: Long,
               alpha: Double = 1.1, seed: Long = 3): DataFrame = {
    import spark.implicits._
    // Inverse-CDF draw over rank weights 1/k^alpha; good enough for skew.
    val norm = (1L to math.min(nKeys, 10000L)).map(k => 1.0 / math.pow(k.toDouble, alpha)).sum
    spark.range(rows).select(
      least(lit(nKeys),
            greatest(lit(1L),
              pow(lit(1.0) / (rand(seed) * norm + 1e-9), lit(1.0 / alpha)).cast(LongType)
            )) as "k",
      rand(seed + 1) as "v",
    )
  }

  /** TalkingData-lite click stream (Table 2 workload): the public Kaggle
    * dataset is 184.9M ad clicks with a heavily repeated `ip` key; we
    * reproduce the column shape and the zipf-from-fixed-universe key
    * regime (~278k unique ips at full scale) rather than downloading it.
    */
  def clicks(spark: SparkSession, rows: Long, nIps: Long = 278000L,
             alpha: Double = 1.05, seed: Long = 7): DataFrame = {
    import spark.implicits._
    spark.range(rows).select(
      concat(lit("ip_"),
        least(lit(nIps), greatest(lit(1L),
          pow(lit(1.0) / (rand(seed) + 1e-12), lit(1.0 / alpha)).cast(LongType)
        ))) as "ip",
      (rand(seed + 1) * 500).cast(IntegerType)   as "app",
      (rand(seed + 2) * 3000).cast(IntegerType)  as "device",
      (rand(seed + 3) * 800).cast(IntegerType)   as "os",
      (rand(seed + 4) * 200).cast(IntegerType)   as "channel",
      (lit(1510000000000L) + (rand(seed + 5) * 4L * 86400000L).cast(LongType)) as "click_time",
      (rand(seed + 6) < 0.002)                   as "is_attributed",
    )
  }

  /** User action stream (MicroBench-style primary table): one row per
    * user event with price/quantity/category — the Figure 1 recommendation
    * workload shape.
    */
  def actions(spark: SparkSession, rows: Long, nUsers: Long, spanMs: Long = 86400000L,
              seed: Long = 11): DataFrame = {
    import spark.implicits._
    spark.range(rows).select(
      (rand(seed) * nUsers + 1).cast(LongType)        as "userid",
      (rand(seed + 1) * spanMs).cast(LongType)        as "ts",
      element_at(array(lit("view"), lit("click"), lit("cart"), lit("buy")),
                 (rand(seed + 2) * 4 + 1).cast("int")) as "atype",
      round(rand(seed + 3) * 200 + 1, 2)              as "price",
      (rand(seed + 4) * 5 + 1).cast(IntegerType)      as "quantity",
      element_at(array(lit("shoes"), lit("books"), lit("toys"), lit("food"), lit("tech")),
                 (rand(seed + 5) * 5 + 1).cast("int")) as "category",
    )
  }

  /** Order stream (MicroBench secondary table for WINDOW UNION). */
  def ordersStream(spark: SparkSession, rows: Long, nUsers: Long, spanMs: Long = 86400000L,
                   seed: Long = 13): DataFrame = {
    import spark.implicits._
    spark.range(rows).select(
      (rand(seed) * nUsers + 1).cast(LongType)   as "userid",
      (rand(seed + 1) * spanMs).cast(LongType)   as "ts",
      lit("order")                               as "atype",
      round(rand(seed + 2) * 500 + 1, 2)         as "price",
      (rand(seed + 3) * 3 + 1).cast(IntegerType) as "quantity",
      element_at(array(lit("shoes"), lit("books"), lit("toys"), lit("food"), lit("tech")),
                 (rand(seed + 4) * 5 + 1).cast("int")) as "category",
    )
  }
}
